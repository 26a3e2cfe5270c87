"""Property tests: random expression trees against NumPy.

Each tree has at most five operator levels over + - * and scaling, draws
its leaves from four vectors, repeats them freely, may apply an operator
to one subtree twice and may read the destination. The block executor
runs it at a length of two of the tree's own strips plus a tail, and both
executors run it at a short length with a tail, on both backends and at
every unroll (the stepped one with one package and with one per slot).
At the short length the tree is also built with each repeated subtree,
leaves included, as one node object used at every occurrence. An
assignment must be bit identical to the same NumPy expression in the
element type; a reduction must equal its terms (that NumPy expression)
summed in the documented order.
"""

import itertools

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from lanevec.engine import block_strip, execute_reduce, masked_length  # noqa: E402
from lanevec.expressions import AssignNode, Leaf, Scratch, SumNode, as_node  # noqa: E402
from lanevec.lanes import as_dtype, scalar_backend, wide_backend  # noqa: E402
from lanevec.vectors import DenseVector  # noqa: E402

LEAVES = ("d", "x", "y", "z")  # "d" is the destination
ALPHAS = (-1.5, -1.0, 0.5, 3.0)
UNROLLS = (1, 2, 4, 8)
BACKENDS = (scalar_backend, wide_backend)
# A root that needs no register runs in one strip at any length; it is
# run at twice this length plus the tail.
REGISTER_FREE_STRIP = 2048


def trees(levels):
    leaf = st.sampled_from(LEAVES)
    if levels == 0:
        return leaf
    sub = trees(levels - 1)
    # one operand drawn once and used twice, so that shared builds share
    # inner nodes, not only leaves; drawn shallower to bound the tree size
    twice = st.tuples(st.sampled_from("+-*"), trees(max(levels - 2, 0)))
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from("+-*"), sub, sub),
        twice.map(lambda pair: (pair[0], pair[1], pair[1])),
        st.tuples(st.just("scale"), st.sampled_from(ALPHAS), sub),
    )


def evaluate(tree, operands, scale, memo=None):
    """The tree over `operands` (vectors, arrays or nodes), in its own
    operand order; `scale(alpha, value)` applies a scale node. Given a
    dict `memo`, a repeated subtree is evaluated once and its value reused."""
    if isinstance(tree, str):
        return operands[tree]
    if memo is not None and tree in memo:
        return memo[tree]
    if tree[0] == "scale":
        value = scale(tree[1], evaluate(tree[2], operands, scale, memo))
    else:
        a = evaluate(tree[1], operands, scale, memo)
        b = evaluate(tree[2], operands, scale, memo)
        value = a + b if tree[0] == "+" else a - b if tree[0] == "-" else a * b
    if memo is not None:
        memo[tree] = value
    return value


def build(tree, vectors):
    return as_node(evaluate(tree, vectors, lambda alpha, v: alpha * v))


def build_shared(tree, vectors):
    """The tree with one node object per distinct subtree and per vector."""
    leaves = {k: as_node(v) for k, v in vectors.items()}
    return as_node(evaluate(tree, leaves, lambda alpha, v: alpha * v, memo={}))


def numpy_value(tree, arrays, dtype):
    return evaluate(tree, arrays, lambda alpha, a: dtype.type(alpha) * a)


def documented_sum(terms, unroll, width):
    """Lane j of slot s adds the terms at s*width + j of each main-loop
    iteration in order, from +0; lanes fold left to right within a slot,
    slots in order; the tail's terms add in order from +0, last."""
    block = unroll * width
    main = masked_length(len(terms), unroll, width)
    lanes = np.vstack([np.zeros(block, terms.dtype), terms[:main].reshape(-1, block)])
    slots = np.add.accumulate(lanes, axis=0)[-1].reshape(unroll, width)
    total = None
    for slot in slots:
        row = slot[0]
        for v in slot[1:]:
            row = row + v
        total = row if total is None else total + row
    remainder = terms.dtype.type(0)
    for v in terms[main:]:
        remainder = remainder + v
    return total + remainder


def registers_taken(root, n):
    """Scratch registers one block strip of n elements makes: all are back
    in the pool when it ends, with a reduction's terms array, which a
    non-leaf child is handed and a leaf's view stands in for. An
    assignment's strip is the engine's: the destination window as out."""
    scratch = Scratch()
    if isinstance(root, AssignNode):
        out = scratch.dest = root.dest.write_window(0, n)
        root.child.block_op(0, n, out, scratch)
    else:
        scratch.dest = None
        terms = None if isinstance(root.child, Leaf) else np.empty(n, root.dtype)
        root.child.block_op(0, n, terms, scratch)
        if terms is not None:
            scratch.append(terms)
    return len(scratch)


def check_tree(tree, dtype, n, rng, stepped_too):
    values = {k: rng.uniform(0.5, 2.0, n) * rng.choice([-1, 1], n) for k in LEAVES}
    arrays = {k: v.astype(dtype) for k, v in values.items()}
    expected = numpy_value(tree, arrays, dtype)
    runs = [(False, 1)]
    builders = (build, build_shared) if stepped_too else (build,)
    for backend_of in BACKENDS:
        backend = backend_of(dtype)
        for unroll in UNROLLS:
            if stepped_too:
                # packages shape only the stepped executor's bursts
                runs = [(False, 1)] + [(True, p) for p in sorted({1, unroll})]
            for (stepped, packages), make in itertools.product(runs, builders):
                opts = dict(backend=backend, unroll=unroll, packages=packages)
                vectors = {k: DenseVector.from_values(a, dtype) for k, a in arrays.items()}
                vectors["d"].assign(make(tree, vectors), stepped=stepped, **opts)
                where = (tree, n, backend.width, unroll, packages, stepped, make.__name__)
                assert vectors["d"].to_array().tobytes() == expected.tobytes(), where

                vectors = {k: DenseVector.from_values(a, dtype) for k, a in arrays.items()}
                got = execute_reduce(SumNode(make(tree, vectors)), stepped=stepped, **opts)
                want = documented_sum(expected, unroll, backend.width)
                assert got.tobytes() == want.tobytes(), where


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    tree=trees(5),
    dtype=st.sampled_from(["f32", "f64"]),
    tail=st.integers(1, 127),
    short=st.integers(1, 140),
)
def test_random_trees_match_numpy(tree, dtype, tail, short):
    dtype = as_dtype(dtype)
    probe = {k: DenseVector.zeros(1, dtype) for k in LEAVES}
    root = AssignNode(as_node(probe["d"]), build(tree, probe))
    reduction = SumNode(build(tree, probe))
    strip = block_strip(root, 1 << 40) if root.registers else REGISTER_FREE_STRIP
    long_strip = block_strip(reduction, 1 << 40) if reduction.registers else REGISTER_FREE_STRIP
    # two assignment strips and two reduction strips, plus a tail
    long = 2 * max(strip, long_strip) + tail
    rng = np.random.default_rng([short, tail])
    # the counts made when the nodes were built are the registers used
    assert registers_taken(root, 1) == root.registers
    assert registers_taken(reduction, 1) == reduction.registers
    check_tree(tree, dtype, long, rng, stepped_too=False)
    check_tree(tree, dtype, short, rng, stepped_too=True)

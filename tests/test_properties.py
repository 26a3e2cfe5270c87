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
summed in the documented order. Each root's `registers` must equal the
arrays one strip makes, and bound the memory of the long runs.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from lanevec import expressions, ops  # noqa: E402
from lanevec.engine import (  # noqa: E402
    SCRATCH_BYTES,
    UnrollPlan,
    block_strip,
    call_trace,
    execute_assign,
    execute_reduce,
    masked_length,
)
from lanevec.expressions import AssignNode, Leaf, MulNode, SumNode, as_node  # noqa: E402
from lanevec.lanes import as_dtype, scalar_backend, wide_backend  # noqa: E402
from lanevec.vectors import DenseVector  # noqa: E402

LEAVES = ("d", "x", "y", "z")  # "d" is the destination
ALPHAS = (-1.5, -1.0, 0.5, 3.0)
UNROLLS = (1, 2, 4, 8)
BACKENDS = (scalar_backend, wide_backend)
# A root that needs no register runs in one strip at any length; it is
# run at twice this length plus the tail.
REGISTER_FREE_STRIP = 2048
# Elements of the strip whose arrays registers_taken counts: long enough
# that a strip array outweighs the Python objects a strip makes.
COUNTED_STRIP = 4096


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


def fold_lanes(block, main):
    """L, the lanes a reduction folds its `main` masked terms in: the
    largest power of two with block <= L <= 256 and 256*L <= main, or
    block if there is none."""
    powers = (1 << k for k in range(9))
    return max((lanes for lanes in powers if block <= lanes and 256 * lanes <= main),
               default=block)


def documented_sum(terms, unroll, width):
    """Lane p of L = fold_lanes adds the main loop's terms at p, p + L, ...
    in order, from +0, so the masked part's last row, shorter than L,
    adds into the first lanes; the lanes add in lane order in one pass,
    from the first; the tail's terms add in order from +0, last."""
    main = masked_length(len(terms), unroll, width)
    fold = fold_lanes(unroll * width, main)
    assert UnrollPlan(unroll, width, 1, main).fold_lanes == fold
    lanes = np.zeros(fold, terms.dtype)
    for lo in range(0, main, fold):
        row = terms[lo:main][:fold]
        lanes[: len(row)] += row
    total = lanes[0]
    for v in lanes[1:]:
        total = total + v
    remainder = terms.dtype.type(0)
    for v in terms[main:]:
        remainder = remainder + v
    return total + remainder


def traced(call, on=True):
    """call()'s value, and the tracemalloc peak in bytes it reached, or 0
    when not on."""
    if not on:
        return call(), 0
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def registers_taken(root):
    """Arrays one block strip over all of root's elements makes: its
    tracemalloc peak in whole strips' bytes. An assignment's strip is the
    engine's, with the destination window as out; a reduction's child is
    given None, and its terms are the array it returns, or a leaf's view."""
    n = root.length
    out = root.dest.write_window(0, n) if isinstance(root, AssignNode) else None
    return traced(lambda: root.child.block_op(0, n, out))[1] // (n * root.dtype.itemsize)


def check_tree(tree, dtype, n, rng, stepped_too):
    """The tree's assignment and reduction over n elements against NumPy.
    A non-leaf tree given None returns an array of its own. Without
    stepped_too every run is a block one over several strips, and its
    tracemalloc peak stays within the root's registers in strip arrays."""
    values = {k: rng.uniform(0.5, 2.0, n) * rng.choice([-1, 1], n) for k in LEAVES}
    arrays = {k: v.astype(dtype) for k, v in values.items()}
    expected = numpy_value(tree, arrays, dtype)
    vectors = {k: DenseVector.from_values(a, dtype) for k, a in arrays.items()}
    child = build(tree, vectors)
    if not isinstance(child, Leaf):
        # so the reduction's in-place add into its terms writes no vector
        terms = child.block_op(0, n, None)
        assert not any(np.shares_memory(terms, v.read_block(0, n)) for v in vectors.values())
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
                root = AssignNode(vectors["d"], make(tree, vectors))
                where = (tree, n, backend.width, unroll, packages, stepped, make.__name__)
                _, peak = traced(lambda: execute_assign(root, stepped=stepped, **opts),
                                 on=not stepped_too)
                assert vectors["d"].to_array().tobytes() == expected.tobytes(), where
                assert peak <= root.registers * SCRATCH_BYTES + 4096, (where, peak)

                vectors = {k: DenseVector.from_values(a, dtype) for k, a in arrays.items()}
                root = SumNode(make(tree, vectors))
                got, peak = traced(lambda: execute_reduce(root, stepped=stepped, **opts),
                                   on=not stepped_too)
                want = documented_sum(expected, unroll, backend.width)
                assert got.tobytes() == want.tobytes(), where
                assert peak <= root.registers * SCRATCH_BYTES + 4096, (where, peak)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    tree=trees(5),
    dtype=st.sampled_from(["f32", "f64"]),
    tail=st.integers(1, 127),
    short=st.integers(1, 140),
)
def test_random_trees_match_numpy(tree, dtype, tail, short):
    dtype = as_dtype(dtype)
    probe = {k: DenseVector.zeros(COUNTED_STRIP, dtype) for k in LEAVES}
    root = AssignNode(as_node(probe["d"]), build(tree, probe))
    reduction = SumNode(build(tree, probe))
    strip = block_strip(root, 1 << 40) if root.registers else REGISTER_FREE_STRIP
    long_strip = block_strip(reduction, 1 << 40) if reduction.registers else REGISTER_FREE_STRIP
    # two assignment strips and two reduction strips, plus a tail
    long = 2 * max(strip, long_strip) + tail
    rng = np.random.default_rng([short, tail])
    # the counts the nodes give are the arrays a strip makes
    assert registers_taken(root) == root.registers
    assert registers_taken(reduction) == reduction.registers
    check_tree(tree, dtype, long, rng, stepped_too=False)
    check_tree(tree, dtype, short, rng, stepped_too=True)


class RegistersRead(Exception):
    """A node's `registers` was read where nothing may read it."""


def forbid_registers(m):
    """Make reading `registers` raise RegistersRead on every node class,
    through the MonkeyPatch m."""
    def read(node):
        raise RegistersRead(type(node).__name__)

    for cls in vars(expressions).values():
        if isinstance(cls, type) and hasattr(cls, "registers"):
            m.setattr(cls, "registers", property(read))


def default_calls(tree, vectors):
    """Every default call on the tree: its assignment into "d" and its
    reduction, on both executors, and the call_trace of each."""
    d = vectors["d"]
    for stepped in (False, True):
        d.assign(tree, stepped=stepped)
        execute_reduce(SumNode(tree), stepped=stepped)
    call_trace(AssignNode(d, tree))
    call_trace(SumNode(tree))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(tree=trees(5), dtype=st.sampled_from(["f32", "f64"]), n=st.integers(0, 4097))
def test_building_and_one_strip_calls_never_read_registers(tree, dtype, n):
    """Only a vector longer than one strip reads a root's `registers`: no
    node reads it while a tree is built, and no default call over one
    strip reads it, block or stepped, assignment or reduction."""
    rng = np.random.default_rng(n)
    vectors = {k: DenseVector.from_values(rng.uniform(-1, 1, n), dtype) for k in LEAVES}
    with pytest.MonkeyPatch.context() as m:
        forbid_registers(m)
        default_calls(build(tree, vectors), vectors)


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_only_a_vector_longer_than_one_strip_reads_registers(dtype):
    """The six ops at exactly one strip leave `registers` unread; one
    element more and an assignment and a reduction both read it, and
    their strip is the one it gives."""
    strip = SCRATCH_BYTES // as_dtype(dtype).itemsize
    rng = np.random.default_rng(strip)
    x, y, d = (DenseVector.from_values(rng.uniform(-1, 1, strip + 1), dtype)
               for _ in range(3))
    one = [DenseVector(v.to_array()[:strip], dtype) for v in (x, y, d)]
    with pytest.MonkeyPatch.context() as m:
        forbid_registers(m)
        ops.dot(one[0], one[1])
        ops.sum(one[0])
        ops.norm2(one[0])
        ops.axpy(0.5, one[0], one[1])
        ops.scal(2.0, one[2])
        ops.scaled_copy(0.5, one[0], one[2])
        for call in (lambda: ops.dot(x, y), lambda: ops.axpy(0.5, x, y)):
            with pytest.raises(RegistersRead):
                call()

    walks = []
    block_op = MulNode.block_op

    def spy(node, lo, hi, out):
        walks.append((lo, hi))
        return block_op(node, lo, hi, out)

    for registers, strips in ((None, [(0, strip), (strip, strip + 1)]),
                              (0, [(0, strip + 1)])):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(MulNode, "block_op", spy)
            if registers is not None:
                # a count of none runs the same calls in one strip
                for cls in (AssignNode, SumNode):
                    m.setattr(cls, "registers", registers)
            walks.clear()
            ops.dot(x, y)
            assert walks == strips, registers
            walks.clear()
            d.assign(x * y + x)
            assert walks == strips, registers

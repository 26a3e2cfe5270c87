import decimal
import fractions

import numpy as np
import pytest

import lanevec as lv
from lanevec.expressions import (
    AddNode,
    AssignNode,
    Leaf,
    LengthMismatchError,
    MulNode,
    ScaleNode,
    SubNode,
    SumNode,
    as_node,
    combine_partials,
    common_length,
)
from lanevec.engine import execute_assign, execute_reduce, select_plan
from lanevec.lanes import as_dtype, default_backend
from lanevec.oracle import CountingVector
from lanevec.vectors import DenseVector


def vec(*values, dtype="f32"):
    return DenseVector.from_values(values, dtype)


def test_as_node_wraps_vectors_and_passes_nodes_through():
    x, y = vec(1, 2), vec(3, 4)
    leaf = as_node(x)
    assert isinstance(leaf, Leaf)
    assert leaf.vector is x
    # a vector is its own leaf: nothing is built around it
    assert leaf is x
    assert (x + y).left is x
    node = leaf + leaf
    assert as_node(node) is node
    with pytest.raises(TypeError):
        as_node([1, 2, 3])
    with pytest.raises(TypeError):
        as_node(2.5)
    # every node constructor passes its children through as_node
    for build in (
        lambda: AddNode(x, 3),
        lambda: SubNode(3, x),
        lambda: MulNode(x, "a"),
        lambda: ScaleNode(2.0, [1, 2]),
    ):
        with pytest.raises(TypeError, match="cannot use"):
            build()


def test_operator_sugar_builds_the_expected_tree():
    a, b, c = vec(1), vec(2), vec(3)
    expr = a + (b - c)
    assert isinstance(expr, AddNode)
    assert isinstance(expr.left, Leaf)
    assert isinstance(expr.right, SubNode)
    assert isinstance(a * b, MulNode)
    assert isinstance(2.5 * (a + b), ScaleNode)
    assert isinstance((a + b) * 2.5, ScaleNode)
    assert isinstance(-(a + b), ScaleNode)
    assert isinstance(np.float64(3) * as_node(vec(1, dtype="f64")), ScaleNode)
    # counting vectors share the same operators, assign included
    x = vec(1, 2, 3)
    cx = CountingVector(x)
    assert isinstance(np.float32(2) * cx, ScaleNode)
    assert isinstance(-cx, ScaleNode)
    want, got = vec(0, 0, 0), CountingVector.zeros(3)
    want.assign(2.0 * x - x * x)
    got.assign(2.0 * cx - cx * cx)
    assert got.to_array().tobytes() == want.to_array().tobytes()


def test_scalar_plus_vector_is_rejected():
    a = vec(1, 2)
    for operand in (a + a, a, CountingVector(a)):
        with pytest.raises(TypeError):
            _ = 1.0 + operand
        with pytest.raises(TypeError):
            _ = operand - 1.0
        with pytest.raises(TypeError):
            _ = 1.0 - operand


@pytest.mark.parametrize(
    "scalar",
    [2, 2.5, True, np.float32(2.5), np.float64(2.5), fractions.Fraction(5, 2)],
    ids=lambda s: type(s).__name__,
)
def test_any_real_scalar_scales_on_either_side(scalar):
    x = vec(1, 2)
    for node in (scalar * x, x * scalar, scalar * (x + x), (x + x) * scalar):
        assert isinstance(node, ScaleNode)
        assert node.alpha == np.float32(scalar)


def test_operands_multiply_and_other_factors_raise_at_build():
    x, y = vec(1, 2), vec(3, 4)
    for left, right in ((x, y), (x, x + y), (x + y, y), (CountingVector(x), y)):
        assert isinstance(left * right, MulNode)
    with pytest.raises(TypeError):
        _ = "a" * x
    with pytest.raises(TypeError):
        _ = x * "a"
    with pytest.raises(TypeError, match="root"):
        _ = x * SumNode(as_node(y))
    # a scale factor must be a real number, and a bad one writes nothing
    with pytest.raises(TypeError, match="scale factor"):
        ScaleNode("2", x)
    with pytest.raises(TypeError, match="scale factor"):
        lv.scal("2", x)
    with pytest.raises(TypeError, match="scale factor"):
        lv.axpy("0.5", x, y)
    assert x.to_values() == [1, 2]
    assert y.to_values() == [3, 4]


def test_mixed_element_types_rejected_at_construction():
    x32, y64 = vec(1, 2), vec(1, 2, dtype="f64")
    with pytest.raises(TypeError):
        _ = x32 + y64
    with pytest.raises(TypeError):
        AssignNode(as_node(y64), as_node(x32))


def construction_errors():
    """{name: (build, exception type, exact message)} of every error a
    node constructor raises, which the constructors' inline fast paths
    must keep."""
    x, y = vec(1, 2), vec(3, 4)
    x64, y3 = vec(1, 2, dtype="f64"), vec(1, 2, 3)
    root = SumNode(x)
    not_operand = "cannot use int in a vector expression"
    is_root = "SumNode is an evaluation root, not an operand"
    length = "expression mixes vectors of length 2 and 3"
    cases = [
        ("AddNode(x, 3)", lambda: AddNode(x, 3), TypeError, not_operand),
        ("AddNode(3, x)", lambda: AddNode(3, x), TypeError, not_operand),
        ("ScaleNode(2.0, 3)", lambda: ScaleNode(2.0, 3), TypeError, not_operand),
        ("AssignNode(x, 3)", lambda: AssignNode(x, 3), TypeError, not_operand),
        ("AddNode(root, y)", lambda: AddNode(root, y), TypeError, is_root),
        ("SubNode(x, root)", lambda: SubNode(x, root), TypeError, is_root),
        ("x * root", lambda: x * root, TypeError, is_root),
        ("ScaleNode(2.0, root)", lambda: ScaleNode(2.0, root), TypeError, is_root),
        ("AssignNode(x, root)", lambda: AssignNode(x, root), TypeError, is_root),
        ("SumNode(root)", lambda: SumNode(root), TypeError, is_root),
        ("x + x64", lambda: x + x64, TypeError,
         "mixed element types in expression: float32 vs float64"),
        ("AssignNode(x64, x)", lambda: AssignNode(x64, x), TypeError,
         "mixed element types in assignment: float64 vs float32"),
        ("x + y3", lambda: x + y3, LengthMismatchError, length),
        ("AssignNode(x, y3)", lambda: AssignNode(x, y3), LengthMismatchError, length),
        # the element type is checked before the length
        ("AssignNode(y3, x64)", lambda: AssignNode(y3, x64), TypeError,
         "mixed element types in assignment: float32 vs float64"),
        ("ScaleNode('2', x)", lambda: ScaleNode("2", x), TypeError,
         "scale factor must be a real number, got '2'"),
        ("ScaleNode(2j, x)", lambda: ScaleNode(2j, x), TypeError,
         "scale factor must be a real number, got 2j"),
        ("ScaleNode(Decimal, x)", lambda: ScaleNode(decimal.Decimal(2), x), TypeError,
         "scale factor must be a real number, got Decimal('2')"),
        ("ScaleNode(y, x)", lambda: ScaleNode(y, x), TypeError,
         f"scale factor must be a real number, got {y!r}"),
        # the operators build a MulNode for any factor that is not real
        ("'2' * x", lambda: "2" * x, TypeError, "cannot use str in a vector expression"),
        ("x * 2j", lambda: x * 2j, TypeError, "cannot use complex in a vector expression"),
        ("Decimal * x", lambda: decimal.Decimal(2) * x, TypeError,
         "cannot use Decimal in a vector expression"),
    ]
    return {name: case for name, *case in cases}


@pytest.mark.parametrize("name", list(construction_errors()))
def test_construction_errors_keep_their_type_and_message(name):
    build, kind, message = construction_errors()[name]
    with pytest.raises(kind) as info:
        build()
    assert type(info.value) is kind
    assert str(info.value) == message


@pytest.mark.parametrize(
    "factor",
    [True, False, np.float32(2.5), np.float64(-0.5), np.int64(3)],
    ids=repr,
)
def test_bool_and_numpy_scalars_are_scale_factors(factor):
    x = vec(1, 2)
    for node in (ScaleNode(factor, x), factor * x, x * factor):
        assert type(node) is ScaleNode
        assert type(node.alpha) is np.float32
        assert node.alpha == np.float32(factor)


def test_assignment_destination_must_be_a_leaf():
    x = vec(1, 2)
    with pytest.raises(TypeError):
        AssignNode(as_node(x) + as_node(x), as_node(x))


def test_roots_are_not_operands():
    """An assignment or reduction root cannot sit inside another tree: the
    operators, as_node and the root constructors raise when it is built,
    before either executor could evaluate it as something else."""
    x, y, d = vec(1, 2), vec(3, 4), vec(0, 0)
    builds = {
        "SumNode(x) + y": lambda: SumNode(as_node(x)) + y,
        "2.0 * SumNode(x)": lambda: 2.0 * SumNode(as_node(x)),
        "-AssignNode(d, x)": lambda: -AssignNode(as_node(d), as_node(x)),
        "SumNode(SumNode(x))": lambda: SumNode(SumNode(as_node(x))),
        "AssignNode(d, SumNode(x))": lambda: AssignNode(as_node(d), SumNode(as_node(x))),
        "d.assign(SumNode(x))": lambda: d.assign(SumNode(as_node(x))),
        "ScaleNode(2.0, SumNode(x))": lambda: ScaleNode(2.0, SumNode(as_node(x))),
        "AddNode(SumNode(x), y)": lambda: AddNode(SumNode(as_node(x)), as_node(y)),
        "MulNode(x, SumNode(y))": lambda: MulNode(as_node(x), SumNode(as_node(y))),
    }
    for name, build in builds.items():
        with pytest.raises(TypeError):
            build()
        assert d.to_values() == [0, 0], name
    with pytest.raises(TypeError, match="root"):
        as_node(SumNode(as_node(x)))


def test_scale_alpha_is_coerced_to_element_type():
    node32 = ScaleNode(0.1, as_node(vec(1)))
    assert type(node32.alpha) is np.float32
    assert node32.alpha == np.float32(0.1)
    node64 = ScaleNode(np.float32(2.0), as_node(vec(1, dtype="f64")))
    assert type(node64.alpha) is np.float64


def test_register_footprints():
    a, b, c = vec(1), vec(2), vec(3)
    assert as_node(a).register_footprint == 1
    assert (a + b).register_footprint == 2
    assert (2.0 * a).register_footprint == 2
    assert (a + (b - c)).register_footprint == 3
    dot_tree = SumNode(as_node(a) * as_node(b))
    assert dot_tree.register_footprint == 3
    axpy_source = as_node(b) + 2.0 * as_node(a)
    assert axpy_source.register_footprint == 3
    assert AssignNode(as_node(c), axpy_source).register_footprint == 4


def test_common_length_agreement_and_mismatch():
    a, b = vec(1, 2, 3), vec(4, 5, 6)
    assert common_length(a + b) == 3
    assert common_length(AssignNode(as_node(a), as_node(b))) == 3
    short = vec(1, 2)
    with pytest.raises(LengthMismatchError):
        common_length(a + short)
    # destination length participates in the check
    with pytest.raises(LengthMismatchError):
        common_length(AssignNode(as_node(short), as_node(a) + as_node(b)))


@pytest.mark.parametrize("make", [DenseVector.from_values, CountingVector.from_values])
@pytest.mark.parametrize("stepped", [False, True])
def test_leaf_wrapper_matches_the_vector_as_its_own_leaf(make, stepped):
    """Leaf(v) forwards the accessors to v, so trees over wrappers give
    the bits and the element traffic of the same trees over the vectors."""
    rng = np.random.default_rng(3)
    xv, yv = rng.uniform(-2, 2, (2, 133)).astype(np.float32)

    def run(wrap):
        x, y, out = make(xv), make(yv), make(np.zeros(133))
        execute_assign(AssignNode(wrap(out), 1.5 * x + y), stepped=stepped)
        got = execute_reduce(SumNode(MulNode(wrap(x), wrap(y))), stepped=stepped)
        counts = [(getattr(v, "read_count", None), getattr(v, "write_count", None))
                  for v in (x, y, out)]
        return out.to_array().tobytes(), got.tobytes(), counts

    assert run(Leaf) == run(lambda v: v)


def test_length_mismatch_raises_when_the_tree_is_built():
    x, y = CountingVector.from_values(range(5)), CountingVector.from_values(range(5))
    short = CountingVector.from_values(range(4))
    builds = {
        "x + short": lambda: x + short,
        "short * x": lambda: short * x,
        "2.0 * x + short": lambda: 2.0 * x + short,
        "AssignNode(Leaf(short), x + y)": lambda: AssignNode(Leaf(short), x + y),
        "SumNode(x * short)": lambda: SumNode(x * short),
    }
    for name, build in builds.items():
        with pytest.raises(LengthMismatchError):
            build()
        for v in (x, y, short):
            assert (v.read_count, v.write_count) == (0, 0), name


@pytest.mark.parametrize("n", [0, 5])
def test_every_node_kind_carries_its_length(n):
    x, y, d = vec(*range(n)), vec(*range(n)), vec(*range(n))
    nodes = [
        as_node(x),
        x + y,
        x - y,
        x * y,
        2.0 * x,
        AssignNode(Leaf(d), x + y),
        SumNode(x * y),
    ]
    for node in nodes:
        assert node.length == len(x) == common_length(node), repr(node)


def test_building_expressions_reads_nothing():
    a = CountingVector.from_values(range(50))
    b = CountingVector.from_values(range(50))
    c = CountingVector.from_values(range(50))
    expr = ((a + b) - c) * 2.0 + (b - a)
    _ = SumNode(as_node(a) * as_node(b))
    _ = expr.register_footprint
    _ = common_length(expr)
    for v in (a, b, c):
        assert v.read_count == 0
        assert v.write_count == 0


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_combine_partials_order_is_slots_then_lanes_then_remainder(dtype):
    """Lanes add in one sequential pass, slot after slot and left to right
    within a slot, starting from the first lane; the remainder adds last."""
    dt = np.dtype(np.float32 if dtype == "f32" else np.float64)
    rng = np.random.default_rng(9)
    rows = [rng.uniform(-1, 1, 4).astype(dt) for _ in range(3)]
    remainder = dt.type(0.625)
    lanes = [v for row in rows for v in row]
    expected = lanes[0]
    for v in lanes[1:]:
        expected = expected + v
    expected = expected + remainder
    kept = [row.copy() for row in rows]
    got = combine_partials(rows, remainder)
    assert got.tobytes() == expected.tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(rows, kept))  # a list is copied
    # a 2-D array of the same rows sums the same, in place
    assert combine_partials(np.array(kept), remainder).tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_combine_partials_takes_unroll_rows_of_lanes(dtype):
    """The call shape a caller outside the engine makes, as perfbench's
    probe does: a list of U default-width rows and a scalar from the
    backend. It returns one scalar of the element type, the lanes summed
    in order, and leaves the rows as they were, so repeated calls agree."""
    backend = default_backend(dtype)
    w = backend.width
    u = select_plan(3, 0, backend).unroll  # dot's footprint
    rng = np.random.default_rng([4, w])
    rows = [np.asarray(rng.uniform(0.5, 2, w), dtype=backend.dtype) for _ in range(u)]
    rem = backend.scalar(0.25)
    total = rows[0][0]
    for v in np.concatenate(rows)[1:]:
        total = total + v
    want = total + rem
    for _ in range(2):
        got = combine_partials(rows, rem)
        assert type(got) is backend.dtype.type
        assert got.tobytes() == want.tobytes()


def test_combine_partials_small_case():
    rows = [np.ones(4, dtype=np.float32), np.full(4, 2, dtype=np.float32)]
    assert combine_partials(rows, np.float32(3)) == 15


def special_pairs(dtype):
    """Every ordered pair of a set of awkward values of dtype, as two
    arrays: +-0, +-inf, NaN, the smallest and largest subnormals, the
    smallest normal, the largest finite, and values whose products and
    sums round in f32."""
    info = np.finfo(dtype)
    sub = info.smallest_subnormal
    values = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, sub, -sub, info.tiny - sub,
                       info.tiny, info.max, -info.max, 1.0, 1.0 + info.eps, 0.1, 1.1,
                       3.3, -7.77, 1e-20, 1e20], info.dtype)
    left, right = np.meshgrid(values, values)
    return left.ravel(), right.ravel()


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("node, ufunc", [(AddNode, np.add), (SubNode, np.subtract),
                                         (MulNode, np.multiply)])
def test_binary_node_lanes_and_elements_match_numpy_bit_for_bit(node, ufunc, dtype):
    """Each binary node's own vector_op and single_op give NumPy's bits,
    and so do both executors, the stepped one with a tail of single_op."""
    dtype = as_dtype(dtype)
    a, b = special_pairs(dtype)
    n = len(a)
    x, y = DenseVector.from_values(a, dtype), DenseVector.from_values(b, dtype)
    tree = node(x, y)
    with np.errstate(all="ignore"):
        want = ufunc(a, b).tobytes()
        s = {}
        tree.load(0, n, s)
        assert tree.vector_op(s).tobytes() == want
        assert np.array([tree.single_op(i) for i in range(n)], dtype).tobytes() == want
        for stepped in (False, True):
            d = DenseVector.zeros(n, dtype)
            d.assign(tree, stepped=stepped)
            assert d.to_array().tobytes() == want, stepped


def _register_holders(node):
    """The nodes under an operand that hold a lane register in a slot."""
    if isinstance(node, Leaf):
        return [node]
    if isinstance(node, ScaleNode):
        return [node, *_register_holders(node.child)]
    return _register_holders(node.left) + _register_holders(node.right)


def test_slot_holds_each_register_under_its_node():
    from lanevec.lanes import wide_backend

    be = wide_backend("f32", 4)
    x, y, z, w, d = (vec(*range(k, k + 8)) for k in range(5))
    a, b = 0.5, -1.5
    roots = {
        "axpy": (AssignNode(as_node(y), as_node(y) + ScaleNode(a, as_node(x))), 4),
        "dot": (SumNode(as_node(x) * as_node(y)), 3),
        "sum": (SumNode(as_node(x)), 2),
        "t3": (AssignNode(as_node(d), (x + y) * (z - a * w)), 6),
        "spill": (
            AssignNode(
                as_node(d),
                ((x + y) * (z - w) + (x * z - y * w)) * ((y + z) * (w - x) - (a * x + b * w)),
            ),
            17,
        ),
    }

    def filled_slot(root):
        s = {}
        root.load_once(s, be)
        root.load(0, be.width, s)
        root.vector_op(s)
        return s

    for name, (root, footprint) in roots.items():
        assert root.register_footprint == footprint, name
        s = filled_slot(root)
        # one register per distinct node holding one, under that node; a
        # vector named twice is one node, so spill holds fewer than its
        # footprint
        holders = _register_holders(root.child)
        assert len(s) == len({root, *holders}), name
        assert set(s) == {root, *holders}, name

        if isinstance(root, SumNode):
            ts = {}
            root.init(ts)
            assert list(ts) == [root], name  # only the scalar remainder
            assert ts[root] == 0

    # a node object used twice in one tree holds one register
    e = x + y
    shared = SumNode(e * e)
    s = filled_slot(shared)
    assert shared.register_footprint == 5
    assert len(s) == 3 and set(s) == {shared, e.left, e.right}


def test_repr_smoke():
    a, b = vec(1), vec(2)
    text = repr(AssignNode(as_node(a), 2.0 * (as_node(a) + as_node(b))))
    assert "Assign" in text
    assert repr(SumNode(as_node(a)))

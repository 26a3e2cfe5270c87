import numpy as np
import pytest

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
from lanevec.oracle import CountingVector
from lanevec.vectors import DenseVector


def vec(*values, dtype="f32"):
    return DenseVector.from_values(values, dtype)


def test_as_node_wraps_vectors_and_passes_nodes_through():
    x = vec(1, 2)
    leaf = as_node(x)
    assert isinstance(leaf, Leaf)
    assert leaf.vector is x
    node = leaf + leaf
    assert as_node(node) is node
    with pytest.raises(TypeError):
        as_node([1, 2, 3])
    with pytest.raises(TypeError):
        as_node(2.5)


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


def test_mixed_element_types_rejected_at_construction():
    x32, y64 = vec(1, 2), vec(1, 2, dtype="f64")
    with pytest.raises(TypeError):
        _ = x32 + y64
    with pytest.raises(TypeError):
        AssignNode(as_node(y64), as_node(x32))


def test_assignment_destination_must_be_a_leaf():
    x = vec(1, 2)
    with pytest.raises(TypeError):
        AssignNode(as_node(x) + as_node(x), as_node(x))


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
    dt = np.dtype(np.float32 if dtype == "f32" else np.float64)
    rng = np.random.default_rng(9)
    rows = [rng.uniform(-1, 1, 4).astype(dt) for _ in range(3)]
    remainder = dt.type(0.625)
    # first horizontal sum seeds the total, later ones accumulate
    expected = rows[0][0]
    for k in range(1, 4):
        expected = expected + rows[0][k]
    for row in rows[1:]:
        acc = row[0]
        for k in range(1, 4):
            acc = acc + row[k]
        expected = expected + acc
    expected = expected + remainder
    got = combine_partials(rows, remainder)
    assert got.tobytes() == expected.tobytes()


def test_combine_partials_with_no_rows_returns_remainder():
    assert combine_partials([], np.float32(1.5)) == np.float32(1.5)


def test_combine_partials_small_case():
    rows = [np.ones(4, dtype=np.float32), np.full(4, 2, dtype=np.float32)]
    assert combine_partials(rows, np.float32(3)) == 15


def test_storage_composes_pairwise_from_children():
    from lanevec.expressions import Cell, SlotCell
    from lanevec.lanes import wide_backend

    be = wide_backend("f32", 4)
    a, b, c = vec(1), vec(2), vec(3)
    tree = as_node(a) + (as_node(b) - as_node(c))
    storage = tree.make_storage(be)
    # a binary node's storage is exactly the pair of its children's
    assert isinstance(storage, tuple) and len(storage) == 2
    left, right = storage
    assert isinstance(left, SlotCell)
    assert isinstance(right, tuple) and len(right) == 2
    assert all(isinstance(s, SlotCell) for s in right)

    scaled = 2.0 * as_node(a)
    s = scaled.make_storage(be)
    assert isinstance(s[0], SlotCell)  # holds the broadcast scalar

    reduction = SumNode(as_node(a) * as_node(b))
    s = reduction.make_storage(be)
    assert isinstance(s[0], SlotCell)  # the slot accumulator
    ts = reduction.make_temporary(be)
    assert isinstance(ts[0], Cell)  # the scalar remainder accumulator


def test_repr_smoke():
    a, b = vec(1), vec(2)
    text = repr(AssignNode(as_node(a), 2.0 * (as_node(a) + as_node(b))))
    assert "Assign" in text
    assert repr(SumNode(as_node(a)))

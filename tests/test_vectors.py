import gc
import weakref

import numpy as np
import pytest

from lanevec import dot
from lanevec.expressions import AddNode, MulNode, ScaleNode, SubNode
from lanevec.lanes import CONTAINER_ALIGNMENT
from lanevec.oracle import CountingVector
from lanevec.vectors import DenseVector

DTYPES = ("f32", "f64")


@pytest.mark.parametrize("dtype", DTYPES)
def test_zeros(dtype):
    v = DenseVector.zeros(7, dtype)
    assert len(v) == 7
    assert v.to_values() == [0] * 7
    assert v.dtype == np.dtype(np.float32 if dtype == "f32" else np.float64)


def test_zero_length_is_legal():
    v = DenseVector.zeros(0)
    assert len(v) == 0
    assert v.to_values() == []


def test_negative_length_rejected():
    with pytest.raises(ValueError):
        DenseVector.zeros(-1)


@pytest.mark.parametrize("dtype", DTYPES)
def test_from_values_round_trip(dtype):
    v = DenseVector.from_values([1.5, -2.0, 3.25], dtype)
    assert v.to_values() == [1.5, -2.0, 3.25]
    assert len(v) == 3


def test_to_values_returns_dtype_scalars():
    # exactness tests depend on element-typed arithmetic, not Python floats
    v = DenseVector.from_values([1, 2], "f32")
    assert all(type(x) is np.float32 for x in v.to_values())
    w = DenseVector.from_values([1, 2], "f64")
    assert all(type(x) is np.float64 for x in w.to_values())


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", [1, 2, 3, 17, 64, 129, 1000])
def test_storage_is_container_aligned(dtype, n):
    v = DenseVector.zeros(n, dtype)
    assert v.address % CONTAINER_ALIGNMENT == 0


def test_many_allocations_stay_aligned():
    for n in range(1, 40):
        assert DenseVector.zeros(n).address % CONTAINER_ALIGNMENT == 0


def test_get_set_and_index_errors():
    v = DenseVector.from_values([1, 2, 3])
    assert v.get(1) == 2
    v.set(1, 9)
    assert v[1] == 9
    v[2] = 7.5
    assert v.get(2) == 7.5
    for bad in (-1, 3, 100):
        with pytest.raises(IndexError):
            v.get(bad)
        with pytest.raises(IndexError):
            v.set(bad, 0)


def test_set_coerces_to_element_type():
    v = DenseVector.zeros(1, "f32")
    v.set(0, 0.1)
    assert type(v.get(0)) is np.float32
    assert v.get(0) == np.float32(0.1)


def test_to_array_is_a_copy():
    v = DenseVector.from_values([1, 2, 3])
    arr = v.to_array()
    arr[0] = 99
    assert v.get(0) == 1


def test_block_access_round_trip():
    v = DenseVector.zeros(8, "f64")
    v.write_block(2, 6, np.array([1.0, 2.0, 3.0, 4.0]))
    assert list(v.read_block(2, 6)) == [1, 2, 3, 4]
    assert v.read_element(3) == 2
    v.write_element(0, 5)
    assert v.get(0) == 5
    assert v.to_values() == [5, 0, 1, 2, 3, 4, 0, 0]
    window = v.write_window(6, 8)
    window[:] = [7.0, 8.0]
    assert v.to_values() == [5, 0, 1, 2, 3, 4, 7, 8]


def test_operators_build_nodes_without_computing():
    x = DenseVector.from_values([1, 2])
    y = DenseVector.from_values([3, 4])
    assert isinstance(x + y, AddNode)
    assert isinstance(x - y, SubNode)
    assert isinstance(x * y, MulNode)
    assert isinstance(2.5 * x, ScaleNode)
    assert isinstance(x * 2.5, ScaleNode)
    assert isinstance(-x, ScaleNode)
    # numpy scalars defer to the expression layer instead of broadcasting
    assert isinstance(np.float32(2.0) * x, ScaleNode)
    assert isinstance((x + y) - x * 2.0, SubNode)


@pytest.mark.parametrize("make", [DenseVector.from_values, CountingVector.from_values])
def test_in_place_operators_raise_and_leave_the_vector_alone(make):
    x = make([1.0, 2.0])
    y = make([3.0, 4.0])
    vector = x
    with pytest.raises(TypeError, match=r"x\.assign\(x \+ y\)"):
        x += y
    with pytest.raises(TypeError, match=r"x\.assign\(x - y\)"):
        x -= y
    with pytest.raises(TypeError, match=r"x\.assign\(x \* y\)"):
        x *= 2.0
    with pytest.raises(TypeError, match=r"x\.assign\(x \* y\)"):
        x *= y
    assert x is vector
    assert x.to_values() == [1.0, 2.0]
    # expressions are immutable, so += on one rebinds the name, as for tuples
    e = x + y
    e += y
    assert isinstance(e, AddNode) and isinstance(e.left, AddNode)


def test_assign_evaluates_expressions():
    x = DenseVector.from_values([1, 2, 3, 4, 5])
    y = DenseVector.from_values([10, 20, 30, 40, 50])
    d = DenseVector.zeros(5)
    d.assign(x + y)
    assert d.to_values() == [11, 22, 33, 44, 55]
    d.assign(2.0 * x - y * 1.0)
    assert d.to_values() == [-8, -16, -24, -32, -40]
    d.assign(x)
    assert d.to_values() == [1, 2, 3, 4, 5]


def test_evaluation_leaves_no_reference_cycle():
    """A vector is its own leaf, so no evaluation makes a cycle through it:
    with the cyclic collector off, deleting the vector frees its storage."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        x = DenseVector.from_values(range(100))
        storage = weakref.ref(x._data)
        dot(x, x)
        x.assign(2.0 * x)
        dot(x, x, stepped=True)
        del x
        assert storage() is None
    finally:
        if was_enabled:
            gc.enable()


def test_assign_accepts_plan_overrides():
    x = DenseVector.from_values(range(100))
    d = DenseVector.zeros(100)
    d.assign(x * 3.0, unroll=2, packages=2)
    assert d.to_values() == [3.0 * i for i in range(100)]


def test_repr_smoke():
    assert "DenseVector" in repr(DenseVector.zeros(10))

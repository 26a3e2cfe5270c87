import fractions
import gc
import warnings
import weakref

import numpy as np
import pytest

from lanevec import axpy, dot, norm2, scal, scaled_copy
from lanevec import sum as vec_sum
from lanevec.engine import SCRATCH_BYTES, call_trace
from lanevec.expressions import AddNode, AssignNode, MulNode, ScaleNode, SubNode
from lanevec.lanes import CONTAINER_ALIGNMENT, as_dtype, default_backend
from lanevec.oracle import CountingVector
from lanevec.vectors import DenseVector

DTYPES = ("f32", "f64")


@pytest.mark.parametrize("dtype", DTYPES)
def test_zeros(dtype):
    v = DenseVector.zeros(7, dtype)
    assert len(v) == 7
    assert v.to_values() == [0] * 7
    assert v.dtype == np.dtype(np.float32 if dtype == "f32" else np.float64)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", [0, 1, 65543, 2**20])
def test_zeros_are_positive_zero_and_aligned(dtype, n):
    """Every element is +0.0, no sign bit set, in storage that starts on a
    64-byte boundary, from a small buffer up to one calloc maps fresh."""
    v = DenseVector.zeros(n, dtype)
    bits = v.to_array().view(np.uint32 if dtype == "f32" else np.uint64)
    assert not bits.any()
    assert v.address % CONTAINER_ALIGNMENT == 0


def test_zero_length_is_legal():
    v = DenseVector.zeros(0)
    assert len(v) == 0
    assert v.to_values() == []


def test_negative_length_rejected():
    with pytest.raises(ValueError):
        DenseVector.zeros(-1)
    # a bool or a fractional length is a TypeError; NumPy integers pass
    for bad in (True, 2.5):
        with pytest.raises(TypeError, match="length n"):
            DenseVector.zeros(bad)
    assert len(DenseVector.zeros(np.int64(3))) == 3


@pytest.mark.parametrize("dtype", DTYPES)
def test_from_values_round_trip(dtype):
    v = DenseVector.from_values([1.5, -2.0, 3.25], dtype)
    assert v.to_values() == [1.5, -2.0, 3.25]
    assert len(v) == 3


@pytest.mark.parametrize("make", [DenseVector.from_values, CountingVector.from_values])
def test_from_values_refuses_what_is_not_1d(make):
    """A nested sequence or a scalar is not flattened into a vector."""
    for bad, ndim in (([[1, 2], [3, 4]], 2), (np.ones((2, 1)), 2), (5.0, 0), (np.float32(5), 0)):
        with pytest.raises(ValueError, match=f"1-D, got {ndim}"):
            make(bad, "f32")
    assert len(make([5.0], "f32")) == 1


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
    # NumPy would read a bool index as a mask over every element
    for v in (DenseVector.from_values([1, 2, 3]), CountingVector.from_values([1, 2, 3])):
        for bad in (True, False, 1.0, np.float64(1)):
            with pytest.raises(TypeError, match="index"):
                v[bad]
            with pytest.raises(TypeError, match="index"):
                v[bad] = 9
            with pytest.raises(TypeError, match="index"):
                v.get(bad)
            with pytest.raises(TypeError, match="index"):
                v.set(bad, 9)
        assert v.to_values() == [1, 2, 3]
        assert getattr(v, "read_count", 0) == getattr(v, "write_count", 0) == 0


@pytest.mark.parametrize("make", [DenseVector.from_values, CountingVector.from_values])
def test_element_values_must_be_real_numbers(make):
    """A string is refused as an element, as it is as a scale factor,
    though NumPy would parse it; a refused value writes nothing."""
    v = make([1.0, 2.0])
    for bad in ("2.5", b"2", None, 1j):
        with pytest.raises(TypeError, match="real"):
            v[0] = bad
        with pytest.raises(TypeError, match="real"):
            v.set(0, bad)
    assert v.to_values() == [1.0, 2.0]
    assert getattr(v, "write_count", 0) == 0
    for bad in (["1", "2"], [1.0, "2"], [1.0, None], np.array(["1"])):
        with pytest.raises(TypeError, match="real"):
            make(bad)
    # ints, floats, NumPy scalars and arrays, and fractions still load
    for good in (2, 2.5, np.float64(2.5), np.int64(3), np.array(1.5), fractions.Fraction(5, 2)):
        v[1] = good
        assert v[1] == np.float32(good)
    assert make(np.arange(3)).to_values() == [0, 1, 2]
    values = [fractions.Fraction(1, 2), 2, np.float64(1.5), 4.0]
    assert make(values).to_values() == [0.5, 2, 1.5, 4]


@pytest.mark.parametrize("make", [DenseVector.from_values, CountingVector.from_values])
def test_element_values_that_overflow(make):
    """Unlike a scale factor, an element value that overflows raises
    nothing of the library's own: a float past f32's range is stored as
    ±inf, as NumPy's cast makes it, and an int too large for any float
    raises float()'s OverflowError in both dtypes and writes nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # NumPy's cast warning
        v = make([1e40, -1e40, 1.0], "f32")
        assert v.to_values() == [np.inf, -np.inf, 1.0]
        v[0] = -1e40
        v.set(1, 1e40)
        assert v.to_values() == [-np.inf, np.inf, 1.0]
    for dtype in ("f32", "f64"):
        for values in ([10**400], [1.0, -(10**400)]):
            with pytest.raises(OverflowError):
                make(values, dtype)
        v = make([1.0, 2.0], dtype)
        for bad in (10**400, -(10**400)):
            with pytest.raises(OverflowError):
                v[0] = bad
            with pytest.raises(OverflowError):
                v.set(1, bad)
        assert v.to_values() == [1.0, 2.0]
        assert getattr(v, "write_count", 0) == 0


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


def test_constructor_normalizes_the_dtype_spelling():
    v = DenseVector(np.arange(5.0), "f64")
    assert v.dtype == np.dtype(np.float64)
    for stepped in (False, True):
        got = vec_sum(v, stepped=stepped)
        assert got == 10.0 and type(got) is np.float64


@pytest.mark.parametrize(
    "data, dtype",
    [
        (np.arange(5.0), np.dtype("f4")),  # f64 storage labelled f32
        (np.arange(5), "f64"),  # int64 storage labelled f64
        ([1.0, 2.0], "f64"),  # not an array
    ],
)
def test_constructor_refuses_storage_of_another_element_type(data, dtype):
    with pytest.raises(TypeError, match="storage must be"):
        DenseVector(data, dtype)


def test_constructor_refuses_a_2d_array():
    with pytest.raises(ValueError, match="1-D"):
        DenseVector(np.zeros((2, 3)), "f64")


def test_constructor_refuses_a_strided_view():
    with pytest.raises(ValueError, match="C-contiguous"):
        DenseVector(np.arange(6.0)[::2], "f64")


@pytest.mark.parametrize("dtype", DTYPES)
def test_constructor_accepts_views_of_a_vector(dtype):
    v = DenseVector.from_values(range(10), dtype)
    window = DenseVector(v.read_block(3, 7), v.dtype)
    assert window.to_values() == [3, 4, 5, 6]
    counted = CountingVector(v)
    assert vec_sum(counted) == 45 and counted.read_count == 10


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


def _window_sizes(dtype):
    """0, 1, the default lane width W, and either side of one strip."""
    strip = SCRATCH_BYTES // as_dtype(dtype).itemsize
    return [0, 1, default_backend(dtype).width, strip - 1, strip, strip + 7]


def _awkward_values(n, dtype, seed):
    """n values of the element type with ±0, NaN, ±inf and subnormals."""
    t = as_dtype(dtype).type
    specials = [0.0, -0.0, np.nan, np.inf, -np.inf, np.finfo(t).smallest_subnormal, -1.5]
    values = np.random.default_rng(seed).standard_normal(n).astype(t)
    values[: min(n, len(specials))] = specials[:n]
    return values


def _bits(a):
    return np.asarray(a).tobytes()


@pytest.mark.parametrize("stepped", [False, True])
@pytest.mark.parametrize("dtype", DTYPES)
def test_whole_vector_reads_keep_exact_aliasing_safe(dtype, stepped):
    t = as_dtype(dtype).type
    a = t(1.5)
    for n in _window_sizes(dtype):
        x0 = _awkward_values(n, dtype, n)
        cases = [
            (lambda x: x.assign(x, stepped=stepped), x0),
            (lambda x: x.assign(x * x, stepped=stepped), np.multiply(x0, x0)),
            (lambda x: scal(a, x, stepped=stepped), np.multiply(a, x0)),
            (lambda x: axpy(a, x, x, stepped=stepped), np.add(x0, np.multiply(a, x0))),
        ]
        for run, want in cases:
            x = DenseVector.from_values(x0, dtype)
            run(x)
            assert _bits(x.to_array()) == _bits(want), (n, want)


@pytest.mark.parametrize("stepped", [False, True])
@pytest.mark.parametrize("dtype", DTYPES)
def test_assigning_a_whole_vector_still_copies_it(dtype, stepped):
    for n in _window_sizes(dtype):
        x0 = _awkward_values(n, dtype, n)
        x, y = DenseVector.from_values(x0, dtype), DenseVector.zeros(n, dtype)
        y.assign(x, stepped=stepped)
        assert _bits(y.to_array()) == _bits(x0) == _bits(x.to_array())
        assert not np.shares_memory(y.read_block(0, n), x.read_block(0, n))
        if n:
            y.set(0, 7)
        assert _bits(x.to_array()) == _bits(x0)


@pytest.mark.parametrize("dtype", DTYPES)
def test_a_stepped_call_over_one_register_of_the_whole_vector(dtype):
    # unroll 1 at n = W: the one main-loop iteration loads all of x's storage
    n = default_backend(dtype).width
    t = as_dtype(dtype).type
    x0 = _awkward_values(n, dtype, 3)
    x = DenseVector.from_values(x0, dtype)
    trace = call_trace(AssignNode(x, ScaleNode(2.0, x)), unroll=1)  # runs the call
    assert [(e.kind, e.index) for e in trace if e.kind in ("load", "store")] == [
        ("load", 0), ("store", 0)]
    x = DenseVector.from_values(x0, dtype)
    scal(2.0, x, unroll=1, stepped=True)
    assert _bits(x.to_array()) == _bits(np.multiply(t(2.0), x0))
    axpy(t(1.5), x, x, unroll=1, stepped=True)
    want = np.multiply(t(2.0), x0)
    assert _bits(x.to_array()) == _bits(np.add(want, np.multiply(t(1.5), want)))


@pytest.mark.parametrize("dtype", DTYPES)
def test_whole_and_partial_windows(dtype):
    v = DenseVector.from_values(range(10), dtype)
    for access in (v.read_block, v.write_window):
        whole = access(0, 10)
        assert np.shares_memory(whole, v.read_block(0, 10)) and len(whole) == 10
        part = access(3, 7)
        assert part.tolist() == [3, 4, 5, 6]
        assert part.ctypes.data == v.address + 3 * v.dtype.itemsize
        assert not np.shares_memory(part, whole[:3]) and not np.shares_memory(part, whole[7:])
    v.write_window(3, 7)[:] = [9, 9, 9, 9]
    assert v.to_values() == [0, 1, 2, 9, 9, 9, 9, 7, 8, 9]


@pytest.mark.parametrize("stepped", [False, True])
@pytest.mark.parametrize("dtype", DTYPES)
def test_one_strip_calls_count_each_element_access(dtype, stepped):
    for n in _window_sizes(dtype)[:-1]:  # no strip longer than the vector
        x, y, out = (CountingVector.from_values(_awkward_values(n, dtype, s), dtype)
                     for s in (1, 2, 3))
        # (call, [(reads, writes) of x, y and out])
        calls = [
            (lambda: dot(x, y, stepped=stepped), [(n, 0), (n, 0), (0, 0)]),
            (lambda: vec_sum(x, stepped=stepped), [(n, 0), (0, 0), (0, 0)]),
            (lambda: norm2(x, stepped=stepped), [(2 * n, 0), (0, 0), (0, 0)]),
            (lambda: scal(1.5, y, stepped=stepped), [(0, 0), (n, n), (0, 0)]),
            (lambda: axpy(1.5, x, y, stepped=stepped), [(n, 0), (n, n), (0, 0)]),
            (lambda: scaled_copy(1.5, x, out, stepped=stepped), [(n, 0), (0, 0), (0, n)]),
            (lambda: out.assign(x, stepped=stepped), [(n, 0), (0, 0), (0, n)]),
            (lambda: x.assign(x * x, stepped=stepped), [(2 * n, n), (0, 0), (0, 0)]),
        ]
        for run, counts in calls:
            for v in (x, y, out):
                v.reset_counts()
            run()
            assert [(v.read_count, v.write_count) for v in (x, y, out)] == counts, (n, counts)

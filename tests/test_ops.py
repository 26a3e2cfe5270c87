import numpy as np
import pytest

from lanevec import DenseVector, axpy, dot, norm2, scal, scaled_copy
from lanevec import sum as vec_sum
from lanevec.expressions import LengthMismatchError
from lanevec.lanes import scalar_backend, wide_backend
from lanevec.oracle import kahan_sum, oracle_axpy

DTYPES = ("f32", "f64")


def vec(values, dtype="f32"):
    return DenseVector.from_values(values, dtype)


@pytest.mark.parametrize("dtype", DTYPES)
def test_dot(dtype):
    assert dot(vec([1, 2, 3], dtype), vec([4, 5, 6], dtype)) == 32
    assert dot(vec([1, 2, 3], dtype), DenseVector.zeros(3, dtype)) == 0
    assert dot(DenseVector.zeros(0, dtype), DenseVector.zeros(0, dtype)) == 0


def test_dot_length_mismatch():
    with pytest.raises(LengthMismatchError):
        dot(vec([1, 2]), vec([1, 2, 3]))


def test_dot_returns_element_typed_scalar():
    assert type(dot(vec([1]), vec([1]))) is np.float32
    assert type(dot(vec([1], "f64"), vec([1], "f64"))) is np.float64


def test_dot_large_matches_compensated_reference():
    rng = np.random.default_rng(4099)
    xs = rng.uniform(0.25, 1.25, 4099).astype(np.float32)
    ys = rng.uniform(0.25, 1.25, 4099).astype(np.float32)
    got = dot(vec(xs), vec(ys))
    expected = kahan_sum(list(xs * ys))
    assert got == pytest.approx(float(expected), rel=1e-5)


@pytest.mark.parametrize("dtype", DTYPES)
def test_scal(dtype):
    x = vec([1, 2, 3], dtype)
    scal(2, x)
    assert x.to_values() == [2, 4, 6]
    scal(0, x)
    assert x.to_values() == [0, 0, 0]


@pytest.mark.parametrize("alpha", [1e40, -1e40, 2**128])
def test_scal_by_alpha_overflowing_f32_raises_and_leaves_x(alpha):
    x = vec([0, 1, -2])
    with pytest.raises(OverflowError):
        scal(alpha, x)
    assert x.to_values() == [0, 1, -2]
    scal(alpha, vec([0, 1, -2], "f64"))  # finite in f64


def test_scal_by_explicit_inf_or_nan_follows_ieee():
    with np.errstate(invalid="ignore"):  # inf * 0 is an invalid operation
        x = vec([0, 1, -2])
        scal(np.inf, x)
        assert np.isnan(x[0]) and x.to_values()[1:] == [np.inf, -np.inf]
        x = vec([0, 1, -2])
        scal(float("nan"), x)
        assert np.isnan(x.to_array()).all()
    # an alpha past the f32 maximum that still rounds to it is not an overflow
    x = vec([1])
    scal(3.4028235e38, x)
    assert x[0] == np.finfo(np.float32).max


def test_scal_by_one_is_bit_exact_identity():
    rng = np.random.default_rng(17)
    values = rng.uniform(-1, 1, 301).astype(np.float32)
    x = vec(values)
    before = x.to_array().tobytes()
    scal(1, x)
    assert x.to_array().tobytes() == before


@pytest.mark.parametrize("dtype", DTYPES)
def test_axpy(dtype):
    x, y = vec([1, 1], dtype), vec([3, 3], dtype)
    axpy(2, x, y)
    assert y.to_values() == [5, 5]
    with pytest.raises(LengthMismatchError):
        axpy(1, vec([1]), vec([1, 2]))


def test_axpy_alpha_zero_leaves_y_bit_exact():
    rng = np.random.default_rng(23)
    x = vec(rng.uniform(-1, 1, 129).astype(np.float32))
    y_values = rng.uniform(-1, 1, 129).astype(np.float32)
    y = vec(y_values)
    axpy(0, x, y)
    assert y.to_array().tobytes() == y_values.tobytes()


def test_axpy_matches_scalar_loop_bit_exactly():
    rng = np.random.default_rng(129)
    x = vec(rng.uniform(-1, 1, 129).astype(np.float32))
    y = vec(rng.uniform(-1, 1, 129).astype(np.float32))
    expected = oracle_axpy(np.float32(0.3), x.to_values(), y.to_values())
    axpy(0.3, x, y)
    got = y.to_values()
    assert got == expected
    assert np.array(got).tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
def test_scaled_copy(dtype):
    x = vec([1, 2], dtype)
    out = DenseVector.zeros(2, dtype)
    scaled_copy(3, x, out)
    assert out.to_values() == [3, 6]
    assert x.to_values() == [1, 2]
    with pytest.raises(LengthMismatchError):
        scaled_copy(1, vec([1]), DenseVector.zeros(2))


def test_scaled_copy_by_one_is_bit_exact_copy():
    rng = np.random.default_rng(31)
    values = rng.uniform(-1, 1, 100).astype(np.float32)
    x, out = vec(values), DenseVector.zeros(100)
    scaled_copy(1, x, out)
    assert out.to_array().tobytes() == values.tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
def test_norm2(dtype):
    assert norm2(vec([3, 4], dtype)) == 5
    assert norm2(DenseVector.zeros(10, dtype)) == 0
    assert type(norm2(vec([3, 4], dtype))) is (
        np.float32 if dtype == "f32" else np.float64
    )


@pytest.mark.parametrize("dtype", DTYPES)
def test_sum(dtype):
    assert vec_sum(DenseVector.zeros(50, dtype)) == 0
    assert vec_sum(vec(range(1, 101), dtype)) == 5050


def test_options_pass_through_to_the_engine():
    x, y = vec([1, 2, 3, 4, 5]), vec([5, 4, 3, 2, 1])
    base = dot(x, y)
    for opts in (
        dict(unroll=2),
        dict(backend=scalar_backend("f32")),
        dict(backend=wide_backend("f32", 4), unroll=8, packages=2),
        dict(stepped=True),
    ):
        assert dot(x, y, **opts) == base  # tiny exact integers, any order


def test_inplace_ops_accept_overrides():
    x = vec(range(100))
    scal(2, x, unroll=4, stepped=True)
    assert x.to_values() == [2.0 * i for i in range(100)]

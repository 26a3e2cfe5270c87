import inspect
import re

import numpy as np
import pytest

from lanevec import DenseVector, axpy, dot, norm2, scal, scaled_copy
from lanevec import sum as vec_sum
from lanevec.engine import PlanError, execute_assign, execute_reduce
from lanevec.expressions import LengthMismatchError
from lanevec.lanes import LaneBackend
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
        dict(backend=LaneBackend("f32", 1)),
        dict(backend=LaneBackend("f32", 4), unroll=8),
        dict(stepped=True),
    ):
        assert dot(x, y, **opts) == base  # tiny exact integers, any order


def test_inplace_ops_accept_overrides():
    x = vec(range(100))
    scal(2, x, unroll=4, stepped=True)
    assert x.to_values() == [2.0 * i for i in range(100)]


def _entry_points(dtype="f32", n=37):
    """Each entry point's name as its errors give it, the function, its
    positional arguments and the engine function it forwards to."""
    rng = np.random.default_rng(n)
    x = vec(rng.standard_normal(n), dtype)
    y = vec(rng.standard_normal(n), dtype)
    return [
        ("dot", dot, (x, y), execute_reduce),
        ("sum", vec_sum, (x,), execute_reduce),
        ("norm2", norm2, (x,), execute_reduce),
        ("scal", scal, (1.5, y), execute_assign),
        ("axpy", axpy, (1.5, x, y), execute_assign),
        ("scaled_copy", scaled_copy, (1.5, x, y), execute_assign),
        ("DenseVector.assign", y.assign, (x * x + y,), execute_assign),
    ]


def test_entry_points_take_the_engine_options_by_keyword_with_its_defaults():
    # a sixth engine option that one entry point does not forward fails here
    for name, fn, _, engine_fn in _entry_points():
        engine_options = list(inspect.signature(engine_fn).parameters.values())[1:]
        params = inspect.signature(fn).parameters.values()
        options = [p for p in params if p.kind is p.KEYWORD_ONLY]
        assert [(p.name, p.default) for p in options] == [
            (p.name, p.default) for p in engine_options], name
        assert not any(p.kind is p.VAR_KEYWORD for p in params), name


def test_an_unknown_or_positional_option_names_the_entry_point():
    for name, fn, args, _ in _entry_points():
        called = re.escape(name) + r"\(\)"
        for option in ("foo", "packages"):
            unexpected = f"{called} got an unexpected keyword argument '{option}'"
            with pytest.raises(TypeError, match=unexpected):
                fn(*args, **{option: 1})
        with pytest.raises(TypeError, match=called + " takes"):
            fn(*args, None)  # plan, which execute_* also takes by position


@pytest.mark.parametrize("dtype", DTYPES)
def test_every_option_reaches_the_engine_from_every_entry_point(dtype):
    for _, fn, args, _ in _entry_points(dtype):
        with pytest.raises(PlanError, match="unsupported unroll factor 3"):
            fn(*args, unroll=3)
        with pytest.raises(TypeError, match="stepped must be True or False"):
            fn(*args, stepped="no")
        with pytest.raises(TypeError, match="backend must be a LaneBackend"):
            fn(*args, backend="wide")
        with pytest.raises(TypeError, match="plan must be an UnrollPlan"):
            fn(*args, plan="default")


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", [0, 5, 37, 70])
def test_stepped_entry_points_match_the_block_executor_bit_for_bit(dtype, n):
    results = {}
    for stepped in (False, True):
        got = []
        entries = _entry_points(dtype, n)
        y = entries[0][2][1]  # dot's second operand, which every assignment writes
        for _, fn, args, _ in entries:
            value = fn(*args, stepped=stepped)
            got.append(np.asarray(value if value is not None else y.to_array()))
        results[stepped] = [(r.dtype, r.tobytes()) for r in got]
    assert results[True] == results[False]

import numpy as np
import pytest

from lanevec.lanes import (
    CONTAINER_ALIGNMENT,
    LaneBackend,
    as_dtype,
    default_backend,
    dtype_name,
    horizontal_sum,
    scalar_backend,
    wide_backend,
)

DTYPES = ("f32", "f64")


def test_as_dtype_normalizes_spellings():
    assert as_dtype("f32") == np.dtype(np.float32)
    assert as_dtype("f64") == np.dtype(np.float64)
    assert as_dtype(np.float32) == np.dtype(np.float32)
    assert as_dtype(np.dtype(np.float64)) == np.dtype(np.float64)


@pytest.mark.parametrize("bad", ["f16", np.int32, "int64", complex, None])
def test_as_dtype_rejects_non_float_types(bad):
    with pytest.raises(TypeError):
        as_dtype(bad)


def test_dtype_name_round_trips():
    for name in DTYPES:
        assert dtype_name(as_dtype(name)) == name


@pytest.mark.parametrize("dtype", DTYPES)
def test_splat_fills_every_lane(dtype):
    be = wide_backend(dtype, 4)
    assert list(be.splat(0)) == [0, 0, 0, 0]
    assert list(be.splat(2.5)) == [2.5, 2.5, 2.5, 2.5]
    assert be.splat(1.0).dtype == as_dtype(dtype)


@pytest.mark.parametrize("dtype", DTYPES)
def test_splat_is_a_fresh_register_with_np_full_bits(dtype):
    """Each splat is a new, writable array, bit for bit np.full's with the
    value coerced to the element type first, for the values where a cast
    could go wrong."""
    be = default_backend(dtype)
    dt = as_dtype(dtype)
    values = [0, 0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-40, 0.1, 16777217,
              np.float32(-0.0), np.float64(0.1), True]
    for value in values:
        want = np.full(be.width, dt.type(value))
        first, second = be.splat(value), be.splat(value)
        assert first is not second and not np.shares_memory(first, second)
        for got in (first, second):
            assert got.dtype == dt and got.shape == (be.width,)
            assert got.flags.writeable and got.flags.owndata
            assert got.tobytes() == want.tobytes(), (value, got, want)
        first[0] = 7  # writing one leaves the next splat untouched
        assert be.splat(value).tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", ["3", 1 + 2j, np.complex64(1)])
def test_splat_and_scalar_refuse_a_non_real(bad):
    be = default_backend("f32")
    for make in (be.splat, be.scalar):
        with pytest.raises(TypeError, match="expected a real scalar"):
            make(bad)


@pytest.mark.parametrize("dtype", DTYPES)
def test_horizontal_sum_of_splat_one_is_width(dtype):
    for width in (2, 4, 8):
        be = wide_backend(dtype, width)
        assert horizontal_sum(be.splat(1)) == width


def test_scalar_coercion():
    be = wide_backend("f32", 4)
    v = be.scalar(0.1)
    assert type(v) is np.float32
    assert v == np.float32(0.1)
    with pytest.raises(TypeError):
        be.scalar("3")
    with pytest.raises(TypeError):
        be.scalar(1 + 2j)


@pytest.mark.parametrize("dtype", DTYPES)
def test_load_store_round_trip_is_bit_exact(dtype):
    dt = as_dtype(dtype)
    be = wide_backend(dtype, 4)
    # includes signed zero, infinities and NaN
    region = np.array([1.5, -0.0, np.inf, -np.inf, np.nan, 0.0, -2.5, 3.0], dtype=dt)
    out = np.zeros(8, dtype=dt)
    for offset in (0, 4):
        be.store_aligned(out, offset, be.load_aligned(region, offset))
    assert out.tobytes() == region.tobytes()


def test_load_reads_the_addressed_window():
    be = wide_backend("f32", 4)
    region = np.array([1, 2, 3, 4, 5, 6, 7, 8], dtype=np.float32)
    assert list(be.load_aligned(region, 4)) == [5, 6, 7, 8]


def test_scalar_fallback_round_trip():
    be = scalar_backend("f64")
    region = np.array([9.0], dtype=np.float64)
    assert list(be.load_aligned(region, 0)) == [9.0]


def test_store_touches_nothing_outside_the_window():
    be = wide_backend("f32", 4)
    region = np.arange(12, dtype=np.float32)
    be.store_aligned(region, 4, be.splat(0))
    assert list(region) == [0, 1, 2, 3, 0, 0, 0, 0, 8, 9, 10, 11]


@pytest.mark.parametrize("dtype", DTYPES)
def test_elementwise_results_match_across_widths(dtype):
    dt = as_dtype(dtype)
    rng = np.random.default_rng(3)
    a = rng.uniform(-1, 1, 16).astype(dt)
    b = rng.uniform(-1, 1, 16).astype(dt)
    wide = wide_backend(dtype, 8)
    narrow = scalar_backend(dtype)
    got_wide = np.empty_like(a)
    got_narrow = np.empty_like(a)
    for i in range(0, 16, 8):
        v = wide.load_aligned(a, i) * wide.load_aligned(b, i)
        wide.store_aligned(got_wide, i, v)
    for i in range(16):
        v = narrow.load_aligned(a, i) * narrow.load_aligned(b, i)
        narrow.store_aligned(got_narrow, i, v)
    assert got_wide.tobytes() == got_narrow.tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("width", [2, 4, 8])
def test_horizontal_sum_is_left_to_right(dtype, width):
    dt = as_dtype(dtype)
    rng = np.random.default_rng(5)
    lanes = rng.uniform(-100, 100, width).astype(dt)
    acc = lanes[0]
    for k in range(1, width):
        acc = acc + lanes[k]
    got = horizontal_sum(lanes)
    assert got == acc
    assert got.tobytes() == acc.tobytes()


def test_horizontal_sum_small_cases():
    assert horizontal_sum(np.array([1, 2, 3, 4], dtype=np.float32)) == 10
    assert horizontal_sum(wide_backend("f64", 4).splat(0)) == 0


def test_backend_validation():
    with pytest.raises(ValueError):
        LaneBackend("f32", 3)
    with pytest.raises(ValueError):
        LaneBackend("f32", 0)
    with pytest.raises(ValueError):
        LaneBackend("f32", True)  # a bool is not a width, though True == 1
    with pytest.raises(ValueError):
        LaneBackend("f32", 32)  # 128 bytes > container alignment
    with pytest.raises(ValueError):
        wide_backend("f32", 1)
    with pytest.raises(ValueError, match="width"):
        LaneBackend("f32", 2.0)
    with pytest.raises(ValueError, match="width"):
        wide_backend("f32", 2.0)
    with pytest.raises(ValueError, match="width"):
        wide_backend("f32", "a")
    for dt in DTYPES:
        for w in (1, 2, 4, 8):
            assert LaneBackend(dt, w).specialized == (w > 1)


@pytest.mark.parametrize("dtype", DTYPES)
def test_capabilities_invariants(dtype):
    dt = as_dtype(dtype)
    for be in (scalar_backend(dtype), wide_backend(dtype, 4), default_backend(dtype)):
        caps = be.caps
        if not caps.specialized:
            assert caps.width == 1
        assert caps.width & (caps.width - 1) == 0
        block_bytes = caps.width * dt.itemsize
        assert block_bytes % dt.itemsize == 0
        assert block_bytes & (block_bytes - 1) == 0
        assert block_bytes <= CONTAINER_ALIGNMENT


def test_default_backend_fills_a_64_byte_block():
    assert default_backend("f32").width == 16
    assert default_backend("f64").width == 8
    assert default_backend("f32").caps.specialized

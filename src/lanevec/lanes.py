"""Lane-vector abstraction: a uniform value type for packs of W scalars.

Everything above this layer talks in lane vectors and never sees how a
backend actually moves or combines the W elements.
"""

import functools
import numbers

import numpy as np

__all__ = [
    "LaneVector",
    "LaneBackend",
    "scalar_backend",
    "wide_backend",
    "default_backend",
    "horizontal_sum",
    "as_dtype",
    "CONTAINER_ALIGNMENT",
]

# One 64-byte block per lane register: 16 f32 lanes or 8 f64 lanes.
_DEFAULT_BLOCK_BYTES = 64

# Containers align their base address to this many bytes, which satisfies
# every backend constructible below (width * itemsize <= 64).
CONTAINER_ALIGNMENT = 64

_DTYPE_NAMES = {
    "f32": np.dtype(np.float32),
    "f64": np.dtype(np.float64),
}


def as_dtype(dtype) -> np.dtype:
    """Normalize 'f32'/'f64'/numpy dtype spellings to a numpy dtype."""
    if isinstance(dtype, str) and dtype in _DTYPE_NAMES:
        return _DTYPE_NAMES[dtype]
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise TypeError(f"unsupported element type {dtype!r}; use f32 or f64")
    return dt


def dtype_name(dtype) -> str:
    return "f32" if as_dtype(dtype) == np.dtype(np.float32) else "f64"


class LaneVector:
    """A pack of W scalars combined elementwise.

    Arithmetic allocates a fresh register image; the wrapped array is never
    mutated in place, so a LaneVector may safely alias container memory
    between its load and the next store to the same window.
    """

    __slots__ = ("lanes",)

    def __init__(self, lanes: np.ndarray):
        self.lanes = lanes

    @property
    def width(self) -> int:
        return self.lanes.shape[0]

    def __add__(self, other):
        return LaneVector(self.lanes + other.lanes)

    def __sub__(self, other):
        return LaneVector(self.lanes - other.lanes)

    def __mul__(self, other):
        return LaneVector(self.lanes * other.lanes)

    def __iter__(self):
        return iter(self.lanes)

    def __repr__(self):
        return f"LaneVector({self.lanes.tolist()})"


class LaneBackend:
    """Factory and memory bridge for lane vectors of one width and dtype.

    Width 1 is the portable fallback; a wider backend is `specialized` and
    batches W elements per operation. Elementwise results are
    bit-identical across widths, so the fallback is a drop-in stand-in.
    """

    __slots__ = ("dtype", "width", "specialized")

    def __init__(self, dtype, width: int):
        dtype = as_dtype(dtype)
        if width < 1 or width & (width - 1):
            raise ValueError(f"lane width must be a power of two, got {width}")
        if width * dtype.itemsize > CONTAINER_ALIGNMENT:
            raise ValueError(
                f"width {width} exceeds the {CONTAINER_ALIGNMENT}-byte container "
                f"alignment for {dtype}"
            )
        self.dtype = dtype
        self.width = width
        self.specialized = width > 1

    @property
    def caps(self):
        """The backend itself, which select_plan takes. Kept for the probes
        in perfbench/, which call select_plan(..., backend.caps)."""
        return self

    def splat(self, value) -> LaneVector:
        """Broadcast one scalar into every lane."""
        return LaneVector(np.full(self.width, self.scalar(value), dtype=self.dtype))

    def scalar(self, value):
        """Coerce a number to this backend's element type."""
        if not isinstance(value, numbers.Real):
            raise TypeError(f"expected a real scalar, got {type(value).__name__}")
        return self.dtype.type(value)

    def load_aligned(self, region: np.ndarray, offset: int) -> LaneVector:
        """Read lanes region[offset : offset+W].

        The caller guarantees offset is lane-aligned and in bounds; the
        container layer enforces base alignment.
        """
        return LaneVector(region[offset : offset + self.width])

    def store_aligned(self, region: np.ndarray, offset: int, v: LaneVector) -> None:
        """Write v's lanes to region[offset : offset+W], touching nothing else."""
        region[offset : offset + self.width] = v.lanes

    def __repr__(self):
        kind = "wide" if self.specialized else "scalar"
        return f"LaneBackend({dtype_name(self.dtype)}, width={self.width}, {kind})"


def horizontal_sum(v: LaneVector):
    """Fold the lanes to one scalar, strictly left to right.

    The fixed order makes reductions reproducible across backends of equal
    width; it intentionally matches a plain sequential loop over the lanes.
    """
    # accumulate adds strictly in sequence; np.sum would add pairwise
    return np.add.accumulate(v.lanes)[-1]


def scalar_backend(dtype) -> LaneBackend:
    """The always-available width-1 fallback."""
    return LaneBackend(dtype, 1)


def wide_backend(dtype, width: int | None = None) -> LaneBackend:
    """A batched backend; default width fills one 64-byte block."""
    dt = as_dtype(dtype)
    if width is None:
        width = _DEFAULT_BLOCK_BYTES // dt.itemsize
    if width < 2:
        raise ValueError("wide backends start at width 2; use scalar_backend")
    return LaneBackend(dt, width)


@functools.cache
def default_backend(dtype) -> LaneBackend:
    """Backend evaluations use when none is pinned: one per dtype spelling,
    made on first use and shared by every later call, so callers must not
    change it."""
    return wide_backend(dtype)

"""Lane registers and the backend that makes them.

A lane register is a plain W-element NumPy array of the backend's dtype,
and the layers above combine registers with NumPy's +, - and *; nothing
wraps them, and no register is written in place (see expressions). A
backend fixes W and the dtype: it makes registers (splat, load_aligned),
writes them back (store_aligned) and coerces scalars to the element
type. LaneBackend(dtype, width) is its one constructor: width 1 is the
scalar fallback, and no width means the widest register that
CONTAINER_ALIGNMENT fits, 16 f32 or 8 f64 lanes. default_backend shares
that widest one per dtype spelling. Containers align their storage to
CONTAINER_ALIGNMENT, which every backend fits.
"""

import functools
import numbers

import numpy as np

__all__ = [
    "LaneBackend",
    "default_backend",
    "horizontal_sum",
    "as_dtype",
    "CONTAINER_ALIGNMENT",
]

# Containers align their base address to this many bytes, which satisfies
# every backend constructible below (width * itemsize <= 64). The widest
# register fills one such block: 16 f32 lanes or 8 f64 lanes.
CONTAINER_ALIGNMENT = 64

_DTYPE_NAMES = {
    "f32": np.dtype(np.float32),
    "f64": np.dtype(np.float64),
}
_DTYPES = tuple(_DTYPE_NAMES.values())


def as_dtype(dtype) -> np.dtype:
    """Normalize 'f32'/'f64'/numpy dtype spellings to a numpy dtype. None
    raises TypeError as other unsupported types do, although np.dtype
    reads it as float64 and a float64 dtype compares equal to it."""
    if isinstance(dtype, str) and dtype in _DTYPE_NAMES:
        return _DTYPE_NAMES[dtype]
    dt = np.dtype(dtype)
    if dtype is None or dt not in _DTYPES:
        raise TypeError(f"unsupported element type {dtype!r}; use f32 or f64")
    return dt


def dtype_name(dtype) -> str:
    return "f32" if as_dtype(dtype) == np.dtype(np.float32) else "f64"


def is_count(value) -> bool:
    """Whether value is an integer count: an Integral, but not a bool, which
    would pass as 0 or 1. An exact int skips the costlier ABC check."""
    if type(value) is int:
        return True
    return type(value) is not bool and isinstance(value, numbers.Integral)


class LaneBackend:
    """Factory and memory bridge for lane registers of one width and dtype.

    Width 1 is the portable fallback; a wider backend is `specialized` and
    batches W elements per operation. No width means the widest register
    one CONTAINER_ALIGNMENT block holds. Elementwise results are
    bit-identical across widths, so the fallback is a drop-in stand-in.
    """

    __slots__ = ("dtype", "width", "specialized")

    def __init__(self, dtype, width: int = None):
        dtype = as_dtype(dtype)
        if width is None:
            width = CONTAINER_ALIGNMENT // dtype.itemsize
        if not is_count(width) or width < 1 or width & (width - 1):
            raise ValueError(f"lane width must be a power-of-two integer, got {width!r}")
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

    def splat(self, value) -> np.ndarray:
        """A new register holding one scalar in every lane."""
        # np.full's own cast and copy cost three times this
        register = np.empty(self.width, self.dtype)
        register.fill(self.scalar(value))
        return register

    def scalar(self, value):
        """Coerce a number to this backend's element type."""
        # an exact float or int skips the costlier numbers.Real ABC check
        if type(value) not in (float, int) and not isinstance(value, numbers.Real):
            raise TypeError(f"expected a real scalar, got {type(value).__name__}")
        return self.dtype.type(value)

    def load_aligned(self, region: np.ndarray, offset: int) -> np.ndarray:
        """The register region[offset : offset+W], a view of region.

        The caller guarantees offset is lane-aligned and in bounds; the
        container layer enforces base alignment.
        """
        return region[offset : offset + self.width]

    def store_aligned(self, region: np.ndarray, offset: int, v: np.ndarray) -> None:
        """Write register v to region[offset : offset+W], touching nothing else."""
        region[offset : offset + self.width] = v

    def __repr__(self):
        kind = "wide" if self.specialized else "scalar"
        return f"LaneBackend({dtype_name(self.dtype)}, width={self.width}, {kind})"


def horizontal_sum(v: np.ndarray):
    """Fold register v's lanes to one scalar, strictly left to right.

    The fixed order makes reductions reproducible across backends of equal
    width; it intentionally matches a plain sequential loop over the lanes.
    """
    # accumulate adds strictly in sequence; np.sum would add pairwise
    return np.add.accumulate(v)[-1]


# Not public: only the lanes.horizontal_sum probe in perfbench/layers.py
# calls lv.LaneVector(rows[0]). It goes when the probes move to the public
# API, with the other names only they use (ROADMAP item 4).
LaneVector = np.asarray


@functools.cache
def default_backend(dtype) -> LaneBackend:
    """Backend evaluations use when none is pinned: one per dtype spelling,
    made on first use and shared by every later call, so callers must not
    change it."""
    return LaneBackend(dtype)

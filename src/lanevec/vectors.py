"""Owned, aligned dense vectors: the leaves and destinations of expressions."""

import numpy as np

from .expressions import Leaf
from .lanes import CONTAINER_ALIGNMENT, as_dtype

__all__ = ["DenseVector"]


def _aligned_empty(n: int, dtype: np.dtype) -> np.ndarray:
    """Uninitialized length-n array whose base address is 64-byte aligned."""
    nbytes = n * dtype.itemsize
    raw = np.empty(nbytes + CONTAINER_ALIGNMENT, dtype=np.uint8)
    start = (-raw.ctypes.data) % CONTAINER_ALIGNMENT
    return raw[start : start + nbytes].view(dtype)


class DenseVector(Leaf):
    """Fixed-length contiguous array of f32 or f64 scalars.

    The length never changes after construction and the storage stays
    aligned for every lane backend, so evaluation loops can use aligned
    block access unconditionally. Zero-length vectors are legal and every
    loop degenerates cleanly over them. The vector is the Leaf node of
    every expression over it, and `assign` evaluates one into it. It is a
    key in slot dicts, so it must not define __eq__ or __hash__.
    """

    __slots__ = ("_data",)

    def __init__(self, data: np.ndarray, dtype: np.dtype):
        self._data = data
        self.dtype = dtype
        self.length = data.shape[0]

    vector = property(lambda self: self, doc="The vector itself (see Leaf).")

    @classmethod
    def zeros(cls, n: int, dtype="f32") -> "DenseVector":
        if n < 0:
            raise ValueError(f"length must be >= 0, got {n}")
        dt = as_dtype(dtype)
        buf = _aligned_empty(n, dt)
        buf.fill(0)
        return cls(buf, dt)

    @classmethod
    def from_values(cls, values, dtype="f32") -> "DenseVector":
        dt = as_dtype(dtype)
        src = np.asarray(values, dtype=dt).reshape(-1)
        buf = _aligned_empty(src.shape[0], dt)
        buf[:] = src
        return cls(buf, dt)

    def get(self, i: int):
        self._check_index(i)
        return self._data[i]

    def set(self, i: int, value) -> None:
        self._check_index(i)
        self._data[i] = self.dtype.type(value)

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.length:
            raise IndexError(f"index {i} out of range for length {len(self)}")

    def __getitem__(self, i: int):
        return self.get(i)

    def __setitem__(self, i: int, value) -> None:
        self.set(i, value)

    def to_values(self) -> list:
        """Elements as a list of dtype scalars (not Python floats)."""
        return list(self._data)

    def to_array(self) -> np.ndarray:
        """Copy of the contents as a plain numpy array."""
        return self._data.copy()

    @property
    def address(self) -> int:
        """Base address of the storage, for alignment checks."""
        return self._data.ctypes.data

    # Block access used by evaluation loops. Reads return views: callers
    # treat them as immutable register images and never write through them.
    def read_block(self, lo: int, hi: int) -> np.ndarray:
        return self._data[lo:hi]

    def write_window(self, lo: int, hi: int) -> np.ndarray:
        """Writable view of elements lo..hi-1: the caller writes each of
        them once, in place, and reads none."""
        return self._data[lo:hi]

    def write_block(self, lo: int, hi: int, values) -> None:
        self._data[lo:hi] = values

    def read_element(self, i: int):
        return self._data[i]

    def write_element(self, i: int, value) -> None:
        self._data[i] = value

    def __repr__(self):
        n = len(self)
        shown = ", ".join(repr(float(v)) for v in self._data[:6])
        tail = ", ..." if n > 6 else ""
        return f"DenseVector([{shown}{tail}], len={n}, dtype={self.dtype})"

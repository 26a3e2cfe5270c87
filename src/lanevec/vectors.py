"""Owned, aligned dense vectors: the leaves and destinations of expressions."""

import numbers

import numpy as np

from .engine import execute_assign
from .expressions import AssignNode, Leaf
from .lanes import CONTAINER_ALIGNMENT, as_dtype, is_count

__all__ = ["DenseVector"]


def _aligned(n: int, dtype: np.dtype, make=np.empty) -> np.ndarray:
    """Length-n array whose base address is 64-byte aligned, cut from a
    buffer that `make` returns: np.empty for storage the caller fills, or
    np.zeros for +0.0 in every element. np.zeros takes large buffers from
    calloc, whose pages come back zeroed, so zero storage is not written
    twice. Storage the caller fills takes np.empty: zeroing it too made
    from_values 1.06-1.35 times slower at 4097 to 2^22 f32 elements.

    It earns its lines: NumPy's allocator put large arrays 16 or 32 bytes
    past a 64-byte boundary, and storage 16 bytes past one took longer
    than aligned storage. Offset time over aligned time, the median of 15
    interleaved rounds in one process, in two such runs on a 2-vCPU
    AVX-512 Xeon with NumPy 2.4.6: at f32 n = 65543, scal 1.10-1.11,
    t3 = (x + y) * (z - 0.5*w) 1.17-1.18 and axpy 1.10, each slower in 15
    of 15 rounds, and dot 1.00-1.02; at n = 2^22, t3 1.11-1.13 in f32 (12
    of 15) and 1.04 in f64 (15 of 15), and f32 dot and axpy 0.97-1.04,
    inside the noise.
    """
    nbytes = n * dtype.itemsize
    raw = make(nbytes + CONTAINER_ALIGNMENT, dtype=np.uint8)
    start = (-raw.ctypes.data) % CONTAINER_ALIGNMENT
    # cut in two steps: NumPy leaves an empty slice at raw's own address
    return raw[start:][:nbytes].view(dtype)


def _reals(values) -> np.ndarray:
    """values as an array; TypeError if an element is not a real number,
    such as a string, which NumPy would parse and a scale factor refuses."""
    src = np.asarray(values)
    if src.dtype.kind not in "biuf":
        for value in src.flat:
            if not isinstance(value, numbers.Real):
                raise TypeError(f"vector elements must be real numbers, got {value!r}")
    return src


class DenseVector(Leaf):
    """Fixed-length contiguous array of f32 or f64 scalars.

    The length never changes after construction. zeros and from_values
    align the storage for every lane backend; the constructor wraps an
    existing 1-D, C-contiguous array of the element type, such as a view
    of another vector, and raises TypeError for any other element type
    and ValueError for any other shape or layout. Zero-length vectors are
    legal and every loop degenerates cleanly over them. The vector is the
    Leaf node of every expression over it, and `assign` evaluates one
    into it through the engine, taking the engine's options as keyword-only
    parameters; CountingVector inherits it. read_block and write_window
    return the storage array itself for the whole vector, the window of
    every block call that runs in one strip, and a view for any other
    window. Its stepped executor calls, load and single_op, read the
    storage directly, not through read_block and read_element as Leaf's
    do. It is a key in slot dicts, so it must not define __eq__ or
    __hash__.
    """

    __slots__ = ("_data",)

    def __init__(self, data: np.ndarray, dtype):
        dt = as_dtype(dtype)
        if not isinstance(data, np.ndarray) or data.dtype != dt:
            found = getattr(data, "dtype", type(data).__name__)
            raise TypeError(f"storage must be a {dt} array, got {found}")
        if data.ndim != 1 or not data.flags.c_contiguous:
            raise ValueError("storage must be a 1-D, C-contiguous array")
        self._data = data
        self.dtype = dt
        self.length = data.shape[0]

    vector = property(lambda self: self, doc="The vector itself (see Leaf).")

    def assign(self, expression, *, plan=None, backend=None, unroll=None, packages=None,
               stepped=False) -> None:
        """Evaluate a lazy expression into this vector in one fused pass;
        the options are execute_assign's, forwarded by name."""
        execute_assign(AssignNode(self, expression), plan, backend=backend, unroll=unroll,
                       packages=packages, stepped=stepped)

    @classmethod
    def zeros(cls, n: int, dtype="f32") -> "DenseVector":
        if not is_count(n):
            raise TypeError(f"length n must be an integer, got {n!r}")
        if n < 0:
            raise ValueError(f"length must be >= 0, got {n}")
        dt = as_dtype(dtype)
        return cls(_aligned(n, dt, np.zeros), dt)

    @classmethod
    def from_values(cls, values, dtype="f32") -> "DenseVector":
        """A vector holding a copy of the 1-D sequence `values`; a nested
        sequence or a scalar raises ValueError, as the constructor does
        for storage that is not 1-D."""
        dt = as_dtype(dtype)
        src = _reals(values)
        if src.ndim != 1:
            raise ValueError(f"values must be 1-D, got {src.ndim} dimensions")
        buf = _aligned(src.shape[0], dt)
        buf[:] = src
        return cls(buf, dt)

    def get(self, i: int):
        self._check_index(i)
        return self.read_element(i)

    def set(self, i: int, value) -> None:
        self._check_index(i)
        self.write_element(i, self.dtype.type(_reals(value)))

    def _check_index(self, i: int) -> None:
        # NumPy would read a bool index as a mask over every element
        if not is_count(i):
            raise TypeError(f"index must be an integer, got {i!r}")
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

    # Block access used by evaluation loops. The whole window is the
    # storage itself, which spares a one-strip call a view per leaf, and
    # any other window is a view. Callers treat reads as immutable register
    # images and never write through them.
    def read_block(self, lo: int, hi: int) -> np.ndarray:
        return self._data if hi - lo == self.length else self._data[lo:hi]

    def write_window(self, lo: int, hi: int) -> np.ndarray:
        """Writable elements lo..hi-1, the storage itself if that is all of
        them: the caller writes each of them once, in place, and reads none."""
        return self._data if hi - lo == self.length else self._data[lo:hi]

    def write_block(self, lo: int, hi: int, values) -> None:
        self._data[lo:hi] = values

    def read_element(self, i: int):
        return self._data[i]

    def write_element(self, i: int, value) -> None:
        self._data[i] = value

    # Leaf's would cost one more call per slot and per tail element.
    def load(self, lo, hi, s):
        s[self] = self._data[lo:hi]

    def single_op(self, i):
        return self._data[i]

    def __repr__(self):
        n = len(self)
        shown = ", ".join(repr(float(v)) for v in self._data[:6])
        tail = ", ..." if n > 6 else ""
        return f"DenseVector([{shown}{tail}], len={n}, dtype={self.dtype})"

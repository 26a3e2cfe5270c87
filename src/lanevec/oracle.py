"""Brute-force scalar references and access-counting instrumentation.

The oracle loops are the ground truth the rest of the library is tested
against, so they stay deliberately naive: plain left-to-right Python
loops, no lanes, no unrolling, no masking. They work on any indexable
sequence; for exact comparisons pass elements (and alpha) already in the
target scalar type, e.g. via DenseVector.to_values().
"""

from .expressions import Leaf
from .vectors import DenseVector

__all__ = [
    "CountingVector",
    "oracle_dot",
    "oracle_sum",
    "oracle_scal",
    "oracle_axpy",
    "oracle_scaled_copy",
    "kahan_sum",
]


def _check_same_length(x, y):
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")


def oracle_dot(x, y):
    _check_same_length(x, y)
    acc = 0
    for i in range(len(x)):
        acc = acc + x[i] * y[i]
    return acc


def oracle_sum(x):
    acc = 0
    for i in range(len(x)):
        acc = acc + x[i]
    return acc


def oracle_scal(alpha, x) -> list:
    return [alpha * x[i] for i in range(len(x))]


# Out-of-place scaling computes the same values as in-place scaling.
oracle_scaled_copy = oracle_scal


def oracle_axpy(alpha, x, y) -> list:
    _check_same_length(x, y)
    return [y[i] + alpha * x[i] for i in range(len(x))]


def kahan_sum(values):
    """Compensated left-to-right sum in the element type of the input.

    Neumaier's variant: the compensation also covers the case where the
    running sum is smaller than the incoming term.
    """
    total = 0
    comp = 0
    for v in values:
        t = total + v
        if abs(total) >= abs(v):
            comp = comp + ((total - t) + v)
        else:
            comp = comp + ((v - t) + total)
        total = t
    return total + comp


class CountingVector(Leaf):
    """Wrapper around a vector container that counts element traffic.

    Every read and write is tallied per element (a block access of k
    elements counts k), values pass through untouched. Supports the same
    access surface as the wrapped container, and is the Leaf node of
    every expression over it: it must not define __eq__ or __hash__.
    """

    __slots__ = ("inner", "read_count", "write_count")

    def __init__(self, inner):
        self.inner = inner
        self.dtype = inner.dtype
        self.length = len(inner)
        self.read_count = 0
        self.write_count = 0

    vector = property(lambda self: self, doc="The vector itself (see Leaf).")

    @classmethod
    def zeros(cls, n, dtype="f32"):
        return cls(DenseVector.zeros(n, dtype))

    @classmethod
    def from_values(cls, values, dtype="f32"):
        return cls(DenseVector.from_values(values, dtype))

    def reset_counts(self) -> None:
        self.read_count = 0
        self.write_count = 0

    def get(self, i):
        self.read_count += 1
        return self.inner.get(i)

    def set(self, i, value) -> None:
        self.write_count += 1
        self.inner.set(i, value)

    __getitem__ = get
    __setitem__ = set

    def to_values(self) -> list:
        return self.inner.to_values()

    def to_array(self):
        return self.inner.to_array()

    def read_element(self, i):
        self.read_count += 1
        return self.inner.read_element(i)

    def write_element(self, i, value) -> None:
        self.write_count += 1
        self.inner.write_element(i, value)

    def read_block(self, lo, hi):
        self.read_count += hi - lo
        return self.inner.read_block(lo, hi)

    def write_block(self, lo, hi, values) -> None:
        self.write_count += hi - lo
        self.inner.write_block(lo, hi, values)

    def write_window(self, lo, hi):
        # the caller writes every element of the window once
        self.write_count += hi - lo
        return self.inner.write_window(lo, hi)

    def __repr__(self):
        return (
            f"CountingVector({self.inner!r}, reads={self.read_count}, "
            f"writes={self.write_count})"
        )

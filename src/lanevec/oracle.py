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


class CountingVector(DenseVector):
    """A DenseVector that counts its element traffic.

    Each of the five element accessors tallies the elements it touches (a
    block access of k elements counts k) and passes values through
    untouched. get, set and indexing go through read_element and
    write_element, and the stepped executor's load and single_op, which
    DenseVector runs on its storage, are Leaf's again, which go through
    read_block and read_element, so they all count. `CountingVector(v)`
    counts the traffic of v's storage, which it shares; zeros and
    from_values make storage of its own.
    """

    __slots__ = ("read_count", "write_count")

    def __init__(self, data, dtype=None):
        if dtype is None:  # CountingVector(v)
            data, dtype = data._data, data.dtype
        super().__init__(data, dtype)
        self.reset_counts()

    def reset_counts(self) -> None:
        self.read_count = 0
        self.write_count = 0

    def read_element(self, i):
        self.read_count += 1
        return self._data[i]

    def write_element(self, i, value) -> None:
        self.write_count += 1
        self._data[i] = value

    def read_block(self, lo, hi):
        self.read_count += hi - lo
        return self._data[lo:hi]

    def write_block(self, lo, hi, values) -> None:
        self.write_count += hi - lo
        self._data[lo:hi] = values

    def write_window(self, lo, hi):
        # the caller writes every element of the window once
        self.write_count += hi - lo
        return self._data[lo:hi]

    load = Leaf.load
    single_op = Leaf.single_op

    def __repr__(self):
        return (
            f"CountingVector({super().__repr__()}, reads={self.read_count}, "
            f"writes={self.write_count})"
        )

"""Lazy expression nodes built by operator overloading.

Building a tree never touches vector elements. Each node implements the
evaluation contract the loop engine drives:

    init(ts)              once per evaluation, before anything else
    load_once(s, ts)      once per unroll slot, before the main loop
    load(i, s, ts)        pull lanes i..i+W-1 of every reachable leaf
    vector_op(i, s, ts)   combine loaded lanes; reductions fold into a
                          per-slot accumulator and return it
    store(i, s, ts)       roots write result lanes; a no-op elsewhere
    single_op(i, ts)      scalar path for the remainder elements
    cleanup(ts)           once, after the loops
    reduction(slots, ts)  reductions only: fold slot accumulators and the
                          scalar remainder into one value

Per-slot state lives in Storage objects, composed structurally: a binary
node's storage is exactly the pair of its children's storages. Loop-wide
state (the remainder accumulator) lives in TemporaryStorage, composed the
same way. Both are built fresh per evaluation, so one expression value can
be evaluated concurrently from several threads.
"""

import numbers
import operator

import numpy as np

from .lanes import LaneVector

__all__ = [
    "Expression",
    "Leaf",
    "AddNode",
    "SubNode",
    "MulNode",
    "ScaleNode",
    "AssignNode",
    "SumNode",
    "LengthMismatchError",
    "as_node",
    "common_length",
    "combine_partials",
]


class LengthMismatchError(ValueError):
    """Leaves of one expression tree disagree on length."""


class SlotCell:
    """Mutable holder for one lane register inside a slot's storage."""

    __slots__ = ("backend", "value")

    def __init__(self, backend):
        self.backend = backend
        self.value = None


class Cell:
    """Mutable holder for one loop-wide scalar inside temporary storage."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = None


def _is_vector(obj) -> bool:
    return hasattr(obj, "read_block") and hasattr(obj, "dtype")


def as_node(obj) -> "Expression":
    """Wrap a vector container in a Leaf; pass expressions through."""
    if isinstance(obj, Expression):
        return obj
    if _is_vector(obj):
        return Leaf(obj)
    raise TypeError(f"cannot use {type(obj).__name__} in a vector expression")


def add_nodes(a, b):
    return AddNode(as_node(a), as_node(b))


def sub_nodes(a, b):
    return SubNode(as_node(a), as_node(b))


def mul_nodes(a, b):
    if isinstance(b, numbers.Real):
        return ScaleNode(b, as_node(a))
    return MulNode(as_node(a), as_node(b))


def scale_node(alpha, x):
    return ScaleNode(alpha, as_node(x))


def negate_node(x):
    return ScaleNode(-1, as_node(x))


class Expression:
    """Base class: operator sugar plus the shared contract plumbing."""

    __slots__ = ()

    # Keep numpy scalars from hijacking the arithmetic operators.
    __array_ufunc__ = None

    def __add__(self, other):
        return add_nodes(self, other)

    def __radd__(self, other):
        return add_nodes(other, self)

    def __sub__(self, other):
        return sub_nodes(self, other)

    def __rsub__(self, other):
        return sub_nodes(other, self)

    def __mul__(self, other):
        return mul_nodes(self, other)

    def __rmul__(self, other):
        if isinstance(other, numbers.Real):
            return ScaleNode(other, self)
        return mul_nodes(other, self)

    def __neg__(self):
        return negate_node(self)

    # Contract defaults; structural nodes override what they need.
    def init(self, ts):
        pass

    def cleanup(self, ts):
        pass

    def load_once(self, s, ts):
        pass

    def store(self, i, s, ts):
        pass


class Leaf(Expression):
    """Direct view of a vector container."""

    __slots__ = ("vector", "dtype")

    def __init__(self, vector):
        self.vector = vector
        self.dtype = vector.dtype

    @property
    def register_footprint(self) -> int:
        return 1

    def leaves(self):
        yield self

    def make_storage(self, backend):
        return SlotCell(backend)

    def make_temporary(self, backend):
        return None

    def load(self, i, s, ts):
        s.value = LaneVector(self.vector.read_block(i, i + s.backend.width))

    def vector_op(self, i, s, ts):
        return s.value

    def single_op(self, i, ts):
        return self.vector.read_element(i)

    def block_op(self, lo, hi):
        return self.vector.read_block(lo, hi)

    def __repr__(self):
        return f"Leaf({self.vector!r})"


class _BinaryNode(Expression):
    """Elementwise combination of two subtrees of equal dtype."""

    __slots__ = ("left", "right", "dtype")

    _combine = None  # staticmethod set by subclasses
    _symbol = "?"

    def __init__(self, left: Expression, right: Expression):
        if left.dtype != right.dtype:
            raise TypeError(
                f"mixed element types in expression: {left.dtype} vs {right.dtype}"
            )
        self.left = left
        self.right = right
        self.dtype = left.dtype

    @property
    def register_footprint(self) -> int:
        return self.left.register_footprint + self.right.register_footprint

    def leaves(self):
        yield from self.left.leaves()
        yield from self.right.leaves()

    def make_storage(self, backend):
        return (self.left.make_storage(backend), self.right.make_storage(backend))

    def make_temporary(self, backend):
        return (self.left.make_temporary(backend), self.right.make_temporary(backend))

    def init(self, ts):
        self.left.init(ts[0])
        self.right.init(ts[1])

    def cleanup(self, ts):
        self.left.cleanup(ts[0])
        self.right.cleanup(ts[1])

    def load_once(self, s, ts):
        self.left.load_once(s[0], ts[0])
        self.right.load_once(s[1], ts[1])

    def load(self, i, s, ts):
        self.left.load(i, s[0], ts[0])
        self.right.load(i, s[1], ts[1])

    def store(self, i, s, ts):
        self.left.store(i, s[0], ts[0])
        self.right.store(i, s[1], ts[1])

    def vector_op(self, i, s, ts):
        return self._combine(
            self.left.vector_op(i, s[0], ts[0]),
            self.right.vector_op(i, s[1], ts[1]),
        )

    def single_op(self, i, ts):
        return self._combine(self.left.single_op(i, ts[0]), self.right.single_op(i, ts[1]))

    def block_op(self, lo, hi):
        return self._combine(self.left.block_op(lo, hi), self.right.block_op(lo, hi))

    def __repr__(self):
        return f"({self.left!r} {self._symbol} {self.right!r})"


class AddNode(_BinaryNode):
    __slots__ = ()
    _combine = staticmethod(operator.add)
    _symbol = "+"


class SubNode(_BinaryNode):
    __slots__ = ()
    _combine = staticmethod(operator.sub)
    _symbol = "-"


class MulNode(_BinaryNode):
    __slots__ = ()
    _combine = staticmethod(operator.mul)
    _symbol = "*"


class ScaleNode(Expression):
    """scalar * expression; the scalar is hoisted into a lane register once
    per slot in load_once, never reloaded inside the loop."""

    __slots__ = ("alpha", "child", "dtype")

    def __init__(self, alpha, child: Expression):
        self.child = child
        self.dtype = child.dtype
        self.alpha = self.dtype.type(alpha)

    @property
    def register_footprint(self) -> int:
        return 1 + self.child.register_footprint

    def leaves(self):
        yield from self.child.leaves()

    def make_storage(self, backend):
        return (SlotCell(backend), self.child.make_storage(backend))

    def make_temporary(self, backend):
        return self.child.make_temporary(backend)

    def init(self, ts):
        self.child.init(ts)

    def cleanup(self, ts):
        self.child.cleanup(ts)

    def load_once(self, s, ts):
        s[0].value = s[0].backend.splat(self.alpha)
        self.child.load_once(s[1], ts)

    def load(self, i, s, ts):
        self.child.load(i, s[1], ts)

    def store(self, i, s, ts):
        self.child.store(i, s[1], ts)

    def vector_op(self, i, s, ts):
        return s[0].value * self.child.vector_op(i, s[1], ts)

    def single_op(self, i, ts):
        return self.alpha * self.child.single_op(i, ts)

    def block_op(self, lo, hi):
        return self.alpha * self.child.block_op(lo, hi)

    def __repr__(self):
        return f"({float(self.alpha)!r} * {self.child!r})"


class AssignNode(Expression):
    """Evaluation root writing an elementwise expression into a destination.

    The destination is never read, only written, so an out-of-place scaled
    copy really moves n reads plus n writes and nothing more. The
    destination may be the same vector as a source leaf (in-place scaling);
    overlap at a shifted offset is unsupported and unchecked.
    """

    __slots__ = ("dest", "source", "dtype")

    def __init__(self, dest: Leaf, source: Expression):
        if not isinstance(dest, Leaf):
            raise TypeError("assignment destination must be a vector leaf")
        if dest.dtype != source.dtype:
            raise TypeError(
                f"mixed element types in assignment: {dest.dtype} vs {source.dtype}"
            )
        self.dest = dest
        self.source = source
        self.dtype = dest.dtype

    @property
    def register_footprint(self) -> int:
        # One extra lane holds the computed result between the operation
        # burst and the store burst.
        return 1 + self.source.register_footprint

    def leaves(self):
        yield self.dest
        yield from self.source.leaves()

    def make_storage(self, backend):
        return (SlotCell(backend), self.source.make_storage(backend))

    def make_temporary(self, backend):
        return self.source.make_temporary(backend)

    def init(self, ts):
        self.source.init(ts)

    def cleanup(self, ts):
        self.source.cleanup(ts)

    def load_once(self, s, ts):
        self.source.load_once(s[1], ts)

    def load(self, i, s, ts):
        self.source.load(i, s[1], ts)

    def vector_op(self, i, s, ts):
        v = self.source.vector_op(i, s[1], ts)
        s[0].value = v
        return v

    def store(self, i, s, ts):
        lanes = s[0].value.lanes
        self.dest.vector.write_block(i, i + lanes.shape[0], lanes)

    def single_op(self, i, ts):
        v = self.source.single_op(i, ts)
        self.dest.vector.write_element(i, v)
        return v

    def block_commit(self, lo, hi):
        # The source block is fully materialized before the write, which is
        # what makes the exact-aliasing case safe.
        self.dest.vector.write_block(lo, hi, self.source.block_op(lo, hi))

    def __repr__(self):
        return f"Assign({self.dest!r} <- {self.source!r})"


class SumNode(Expression):
    """Reduction root: sums the operand expression over all indices.

    Each unroll slot keeps a lane accumulator; remainder elements add into
    a scalar accumulator in temporary storage. `reduction` folds slot
    accumulators in ascending slot order, lanes left to right within each,
    then adds the remainder last, so a result is reproducible for a fixed
    plan. The block executor keeps the slot accumulators itself and reads
    the summands a strip at a time through `child.block_op`.
    """

    __slots__ = ("child", "dtype")

    def __init__(self, child: Expression):
        self.child = child
        self.dtype = child.dtype

    @property
    def register_footprint(self) -> int:
        return 1 + self.child.register_footprint

    def leaves(self):
        yield from self.child.leaves()

    def make_storage(self, backend):
        return (SlotCell(backend), self.child.make_storage(backend))

    def make_temporary(self, backend):
        return (Cell(), self.child.make_temporary(backend))

    def init(self, ts):
        ts[0].value = self.dtype.type(0)
        self.child.init(ts[1])

    def cleanup(self, ts):
        self.child.cleanup(ts[1])

    def load_once(self, s, ts):
        s[0].value = s[0].backend.splat(0)
        self.child.load_once(s[1], ts[1])

    def load(self, i, s, ts):
        self.child.load(i, s[1], ts[1])

    def vector_op(self, i, s, ts):
        s[0].value = s[0].value + self.child.vector_op(i, s[1], ts[1])
        return s[0].value

    def single_op(self, i, ts):
        v = self.child.single_op(i, ts[1])
        ts[0].value = ts[0].value + v
        return v

    def reduction(self, slots, ts):
        return combine_partials([s[0].value.lanes for s in slots], ts[0].value)

    def remainder_total(self, ts):
        return ts[0].value

    def __repr__(self):
        return f"Sum({self.child!r})"


def combine_partials(rows, remainder):
    """Fold per-slot lane accumulators plus the scalar remainder, in the
    documented fixed order: each row's lanes left to right, the row totals
    in slot order, then the remainder. Shared by both execution paths so
    they agree bit for bit."""
    if len(rows) == 0:
        return remainder
    # cumsum adds strictly in sequence; np.sum would add pairwise
    row_totals = np.cumsum(rows, axis=1)[:, -1]
    return np.cumsum(row_totals)[-1] + remainder


def common_length(root: Expression) -> int:
    """Common element count of every leaf, checked before any element is
    touched."""
    length = None
    for leaf in root.leaves():
        n = len(leaf.vector)
        if length is None:
            length = n
        elif n != length:
            raise LengthMismatchError(
                f"expression mixes vectors of length {length} and {n}"
            )
    if length is None:
        raise TypeError("expression has no vector leaves")
    return length

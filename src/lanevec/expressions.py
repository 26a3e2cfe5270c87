"""Lazy expression nodes built by operator overloading.

Nodes and vector containers share one operator rule (Operand): a real
scalar times an operand, on either side, scales it, and unary minus
scales by -1; every other operand must pass as_node, so a scalar added
to or subtracted from a vector raises TypeError.

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

Per-slot state lives in storage objects, composed structurally: a binary
node's storage is exactly the pair of its children's storages, and a
unary node's is the pair (its own lane register, its child's storage).
Loop-wide state (the remainder accumulator) lives in temporary storage,
composed the same way, with None for a unary node that keeps none. Both
are built fresh per evaluation, so one expression value can be evaluated
concurrently from several threads.
"""

import math
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


_LARGEST_FINITE = {np.dtype(t): float(np.finfo(t).max) for t in (np.float32, np.float64)}


class LengthMismatchError(ValueError):
    """Leaves of one expression tree disagree on length."""


class Cell:
    """Mutable holder for one loop-wide scalar inside temporary storage."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = None


class SlotCell(Cell):
    """Mutable holder for one lane register inside a slot's storage."""

    __slots__ = ("backend",)

    def __init__(self, backend):
        self.backend = backend
        self.value = None


def _is_vector(obj) -> bool:
    return hasattr(obj, "read_block") and hasattr(obj, "dtype")


def as_node(obj) -> "Expression":
    """Wrap a vector container in a Leaf; pass expressions through."""
    # Test for Expression, not Operand: a vector is an Operand that needs a Leaf.
    if isinstance(obj, Expression):
        return obj
    if _is_vector(obj):
        return Leaf(obj)
    raise TypeError(f"cannot use {type(obj).__name__} in a vector expression")


class Operand:
    """Operator sugar shared by expression nodes and vector containers: a
    real scalar scales, any other operand must pass as_node."""

    __slots__ = ()

    # Keep numpy scalars from hijacking the arithmetic operators.
    __array_ufunc__ = None

    def __add__(self, other):
        return AddNode(as_node(self), as_node(other))

    def __radd__(self, other):
        return AddNode(as_node(other), as_node(self))

    def __sub__(self, other):
        return SubNode(as_node(self), as_node(other))

    def __rsub__(self, other):
        return SubNode(as_node(other), as_node(self))

    def __mul__(self, other):
        if isinstance(other, numbers.Real):
            return ScaleNode(other, as_node(self))
        return MulNode(as_node(self), as_node(other))

    def __rmul__(self, other):
        if isinstance(other, numbers.Real):
            return ScaleNode(other, as_node(self))
        return MulNode(as_node(other), as_node(self))

    def __neg__(self):
        return ScaleNode(-1, as_node(self))


class VectorOperand(Operand):
    """Operand sugar for vector containers, plus assignment into them."""

    __slots__ = ()

    def assign(self, expression, **plan_kwargs) -> None:
        """Evaluate a lazy expression into this vector in one fused pass."""
        # engine imports this module, so its import waits for the call
        from .engine import execute_assign

        execute_assign(AssignNode(Leaf(self), as_node(expression)), **plan_kwargs)


class Expression(Operand):
    """Base class: operator sugar plus the shared contract plumbing."""

    __slots__ = ()

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


class _UnaryNode(Expression):
    """One subtree plus a lane register of its own: storage is (own,
    child's), temporary storage (None, child's), and the contract calls
    pass through to the child's halves."""

    __slots__ = ("child", "dtype")

    def __init__(self, child: Expression):
        self.child = child
        self.dtype = child.dtype

    @property
    def register_footprint(self) -> int:
        return 1 + self.child.register_footprint

    def leaves(self):
        return self.child.leaves()

    def make_storage(self, backend):
        return (SlotCell(backend), self.child.make_storage(backend))

    def make_temporary(self, backend):
        return (None, self.child.make_temporary(backend))

    def init(self, ts):
        self.child.init(ts[1])

    def cleanup(self, ts):
        self.child.cleanup(ts[1])

    def load_once(self, s, ts):
        self.child.load_once(s[1], ts[1])

    def load(self, i, s, ts):
        self.child.load(i, s[1], ts[1])

    def store(self, i, s, ts):
        self.child.store(i, s[1], ts[1])


class ScaleNode(_UnaryNode):
    """scalar * expression; the scalar is hoisted into a lane register once
    per slot in load_once, never reloaded inside the loop.

    A finite alpha that rounds to inf in the element type raises
    OverflowError when the node is built, before any element is touched;
    an explicit inf or NaN alpha is kept and follows IEEE arithmetic.
    """

    __slots__ = ("alpha",)

    def __init__(self, alpha, child: Expression):
        super().__init__(child)
        if abs(float(alpha)) > _LARGEST_FINITE[self.dtype]:
            # only here can the cast round to inf; errstate costs ~2 us, so
            # it stays off the common path
            with np.errstate(over="ignore"):
                self.alpha = self.dtype.type(alpha)
            if math.isinf(self.alpha) and math.isfinite(alpha):
                raise OverflowError(f"scale factor {alpha!r} overflows {self.dtype}")
        else:
            self.alpha = self.dtype.type(alpha)

    def load_once(self, s, ts):
        s[0].value = s[0].backend.splat(self.alpha)
        super().load_once(s, ts)

    def vector_op(self, i, s, ts):
        return s[0].value * self.child.vector_op(i, s[1], ts[1])

    def single_op(self, i, ts):
        return self.alpha * self.child.single_op(i, ts[1])

    def block_op(self, lo, hi):
        return self.alpha * self.child.block_op(lo, hi)

    def __repr__(self):
        return f"({float(self.alpha)!r} * {self.child!r})"


class AssignNode(_UnaryNode):
    """Evaluation root writing an elementwise expression into a destination.

    The destination is never read, only written, so an out-of-place scaled
    copy really moves n reads plus n writes and nothing more. The
    destination may be the same vector as a source leaf (in-place scaling);
    overlap at a shifted offset is unsupported and unchecked. The own lane
    holds the computed result between the operation burst and the store
    burst.
    """

    __slots__ = ("dest",)

    def __init__(self, dest: Leaf, source: Expression):
        if not isinstance(dest, Leaf):
            raise TypeError("assignment destination must be a vector leaf")
        if dest.dtype != source.dtype:
            raise TypeError(
                f"mixed element types in assignment: {dest.dtype} vs {source.dtype}"
            )
        super().__init__(source)
        self.dest = dest

    source = property(operator.attrgetter("child"))

    def leaves(self):
        yield self.dest
        yield from self.child.leaves()

    def vector_op(self, i, s, ts):
        v = self.child.vector_op(i, s[1], ts[1])
        s[0].value = v
        return v

    def store(self, i, s, ts):
        lanes = s[0].value.lanes
        self.dest.vector.write_block(i, i + lanes.shape[0], lanes)

    def single_op(self, i, ts):
        v = self.child.single_op(i, ts[1])
        self.dest.vector.write_element(i, v)
        return v

    def block_commit(self, lo, hi):
        # The source block is fully materialized before the write, which is
        # what makes the exact-aliasing case safe.
        self.dest.vector.write_block(lo, hi, self.child.block_op(lo, hi))

    def __repr__(self):
        return f"Assign({self.dest!r} <- {self.child!r})"


class SumNode(_UnaryNode):
    """Reduction root: sums the operand expression over all indices.

    Each unroll slot keeps a lane accumulator; remainder elements add, in
    index order, into a scalar accumulator that starts at +0 in temporary
    storage. `reduction` folds slot accumulators in ascending slot order,
    lanes left to right within each, then adds the remainder last, so a
    result is reproducible for a fixed plan. The contract calls here are
    the stepped executor's; the block executor keeps the accumulators
    itself and reads the summands through `child.block_op`, a strip at a
    time and the tail in one call.
    """

    __slots__ = ()

    def make_temporary(self, backend):
        return (Cell(), self.child.make_temporary(backend))

    def init(self, ts):
        ts[0].value = self.dtype.type(0)
        super().init(ts)

    def load_once(self, s, ts):
        s[0].value = s[0].backend.splat(0)
        super().load_once(s, ts)

    def vector_op(self, i, s, ts):
        s[0].value = s[0].value + self.child.vector_op(i, s[1], ts[1])
        return s[0].value

    def single_op(self, i, ts):
        v = self.child.single_op(i, ts[1])
        ts[0].value = ts[0].value + v
        return v

    def reduction(self, slots, ts):
        return combine_partials([s[0].value.lanes for s in slots], ts[0].value)

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

"""Lazy expression nodes built by operator overloading.

Every operand is an Expression, and a vector is one too: DenseVector
and CountingVector are Leaf nodes, so a vector is the leaf of every tree
it appears in and nothing is built to wrap it. Every node constructor
checks its children with as_node, and ScaleNode its factor for being real,
so `AddNode(x, 3)` and `ScaleNode("2", x)` raise TypeError as `x + 3` does.
An operand times a real scalar, on either side, scales, times anything else
builds a MulNode, and unary minus scales by -1; there is no reflected + or -.

An evaluation has one root, an AssignNode or a SumNode, over an operand
expression. Roots are not operands: they have no operators, and as_node,
which every constructor calls, rejects them with TypeError, so
`SumNode(x) + y` and `SumNode(SumNode(x))` fail when they are built.

Building a tree never touches vector elements, and checks lengths once:
every node takes its element count, `length`, from its children when it
is built, as it does its register counts, so a binary node or an
assignment whose sides disagree raises LengthMismatchError before any
element is read or written, and an evaluation reads root.length instead
of walking the leaves. Every node implements the per-slot contract the
stepped executor drives:

    load_once(s, backend) once per unroll slot, before the main loop
    load(lo, hi, s)       pull lanes lo..hi-1 of every reachable leaf
    vector_op(s)          combine loaded lanes
    single_op(i)          scalar path for the remainder elements

`s` is the register dict of one unroll slot, and `backend` the lane
backend that makes its splats; lo..hi is the slot's window of W
elements, as in block_op. The root drives the loop and alone keeps
loop-wide state, in the evaluation's temporary `ts`, one more dict (empty
for an assignment, the remainder for a reduction). init, store, cleanup
and reduction exist only on roots, a root's vector_op and single_op
commit instead of returning, and only the root calls that read ts take
it:

    init(ts)              once per evaluation, before anything else
    vector_op(s)          keep the result lanes (assignment) or fold
                          them into the slot accumulator (reduction)
    store(lo, hi, s)      assignments write result lanes; a no-op in a
                          reduction
    single_op(i, ts)      write (assignment) or add (reduction) one
                          remainder element
    cleanup()             once, after the loops
    reduction(slots, ts)  reductions only: fold slot accumulators and the
                          scalar remainder into one value

The block executor drives one call, `block_op`, a strip at a time, and
only on operands: it does a root's work itself, handing an assignment's
destination strip down as `out` and folding a reduction's terms.

    block_op(lo, hi, out, scratch)
                          write elements lo..hi-1 into the array `out`
                          with the ufunc's out= and return it; given
                          None, return the array the ufunc makes; a leaf
                          ignores `out` and returns the view its
                          read_block gives

`scratch` is the evaluation's Scratch pool of strip-length registers.
The register rule keeps exact aliasing safe: a ScaleNode passes its out
down to its child; a binary node evaluates a non-leaf right child into a
pool register, and a non-leaf left child into its own out only when that
out is private scratch, into a register otherwise. The only out that is
not private is an assignment's destination strip, so nothing writes the
destination before every leaf has been read. A node counts the
registers it takes with a private out (`registers`) when it is built, as
it does its lane register footprint; an assignment root counts them with
the destination as out, and a reduction root one more, the array its
child's terms go into, unless they are a leaf's own view.

Every node that holds a lane register keeps it in the slot's dict under
itself, by identity, so nodes, vectors included, must not define __eq__
or __hash__: a leaf its loaded lanes, a ScaleNode its splat alpha, the
root its result or accumulator. A binary node holds none and passes the
dict to both children, so a slot holds at most register_footprint
registers, and a node object used twice in one tree, such as a vector
named twice, holds one. The dicts and the block executor's Scratch are
built fresh per evaluation, so one expression value can be evaluated
concurrently from several threads.

A lane register is a W-element NumPy array of the tree's dtype, and no
register is ever written in place: a leaf's vector_op returns its
register, any other makes a new array with +, - or *, and a root
replaces its dict entry rather than updating it. That rule is why a
leaf's register may be the view its read_block gives, and why an
assignment whose destination is also a source leaf stays safe: the
store to a window comes after the last read of that window.
"""

import math
import numbers
import operator

import numpy as np

from .lanes import _DTYPES

__all__ = [
    "Expression",
    "Scratch",
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


_LARGEST_FINITE = {t: float(np.finfo(t).max) for t in _DTYPES}


class LengthMismatchError(ValueError):
    """Leaves of one expression tree disagree on length."""


class Scratch(list):
    """Registers of one block evaluation: the list holds the strip arrays
    not in use. A node pops one, or passes None so that its child's ufunc
    makes it on first use, and appends it back when done, so each is
    reused on every later strip; the executor clears the list before a
    short last strip, whose ufuncs then make short registers. `dest` is
    the destination strip an assignment is writing, the one out that is
    not private; None in a reduction."""

    __slots__ = ("dest",)


def as_node(obj) -> "Expression":
    """Each node's check of its children: pass an operand, raise TypeError."""
    if isinstance(obj, Expression):
        return obj
    if isinstance(obj, _Root):
        raise TypeError(f"{type(obj).__name__} is an evaluation root, not an operand")
    raise TypeError(f"cannot use {type(obj).__name__} in a vector expression")


def _check_agree(a, b, what):
    """Raise if a and b, the two sides of `what`, mix element types or lengths."""
    if a.dtype != b.dtype:
        raise TypeError(f"mixed element types in {what}: {a.dtype} vs {b.dtype}")
    if a.length != b.length:
        raise LengthMismatchError(
            f"expression mixes vectors of length {a.length} and {b.length}"
        )


# Exact types settled before the numbers.Real check, an ABC check that
# costs more than building the node it decides.
_PLAIN_REALS = (float, int)


def _is_real(obj) -> bool:
    """isinstance(obj, numbers.Real), with the common cases tested first."""
    if type(obj) in _PLAIN_REALS:
        return True
    return not isinstance(obj, Expression) and isinstance(obj, numbers.Real)


class Expression:
    """Base class of operands, the nodes a root evaluates, vectors
    included: a real scalar scales; the node built checks any other."""

    __slots__ = ()

    # Keep numpy scalars from hijacking the arithmetic operators.
    __array_ufunc__ = None

    def __add__(self, other):
        return AddNode(self, other)

    def __sub__(self, other):
        return SubNode(self, other)

    def __mul__(self, other):
        if _is_real(other):
            return ScaleNode(other, self)
        return MulNode(self, other)

    # Reached only when the left factor is not an operand: a real scalar
    # scales, and MulNode rejects anything else, so the order never matters.
    __rmul__ = __mul__

    def __neg__(self):
        return ScaleNode(-1, self)


def _no_in_place(symbol):
    def in_place(self, other):
        raise TypeError(
            f"vectors have no in-place {symbol}=, which would rebind the name to "
            f"a lazy expression; write x.assign(x {symbol} y)"
        )

    return in_place


class Leaf(Expression):
    """A vector as the leaf node of every tree it appears in.

    DenseVector is a Leaf subclass, and CountingVector a DenseVector that
    counts: each implements the five accessors below. DenseVector sets
    `dtype` and `length` and makes `vector` a property that returns
    itself, not a stored self-reference, which would make a cycle;
    CountingVector inherits it. `Leaf(v)` wraps any other container and
    forwards the accessors to it; the wrapper and `vector` are kept for
    the probes in perfbench/, which build `Leaf(out)` and read
    `node.vector`. A wrapper has no `assign`: DenseVector owns it, since
    it runs the engine, which this module must not import. A vector is a
    key in slot dicts, so no subclass may define __eq__ or __hash__. The
    in-place operators raise TypeError: `x += y` would rebind x to an
    unevaluated node and leave the vector as it was. Other expressions
    keep Python's fallback, which rebinds, since they are immutable.
    """

    __slots__ = ("vector", "dtype", "length")

    register_footprint = 1
    registers = 0

    def __init__(self, vector):
        self.vector = vector
        self.dtype = vector.dtype
        self.length = len(vector)

    def __len__(self) -> int:
        return self.length

    __iadd__ = _no_in_place("+")
    __isub__ = _no_in_place("-")
    __imul__ = _no_in_place("*")

    def read_block(self, lo, hi):
        return self.vector.read_block(lo, hi)

    def read_element(self, i):
        return self.vector.read_element(i)

    def write_block(self, lo, hi, values):
        self.vector.write_block(lo, hi, values)

    def write_element(self, i, value):
        self.vector.write_element(i, value)

    def write_window(self, lo, hi):
        return self.vector.write_window(lo, hi)

    def leaves(self):
        yield self

    def load_once(self, s, backend):
        pass

    def load(self, lo, hi, s):
        s[self] = self.read_block(lo, hi)

    def vector_op(self, s):
        return s[self]

    def single_op(self, i):
        return self.read_element(i)

    def block_op(self, lo, hi, out, scratch):
        return self.read_block(lo, hi)

    def __repr__(self):
        return f"Leaf({self.vector!r})"


class _BinaryNode(Expression):
    """Elementwise combination of two subtrees of equal dtype."""

    __slots__ = ("left", "right", "dtype", "length", "register_footprint", "registers")

    _combine = None  # staticmethod set by subclasses
    _ufunc = None  # the same operation on arrays, with out=
    _symbol = "?"

    def __init__(self, left: Expression, right: Expression):
        left = as_node(left)
        right = as_node(right)
        _check_agree(left, right, "expression")
        self.left = left
        self.right = right
        self.dtype = left.dtype
        self.length = left.length
        self.register_footprint = left.register_footprint + right.register_footprint
        # the left result waits in out while the right one fills a register
        regs = left.registers
        if not isinstance(right, Leaf) and right.registers >= regs:
            regs = right.registers + 1
        self.registers = regs

    def leaves(self):
        yield from self.left.leaves()
        yield from self.right.leaves()

    def load_once(self, s, backend):
        self.left.load_once(s, backend)
        self.right.load_once(s, backend)

    def load(self, lo, hi, s):
        self.left.load(lo, hi, s)
        self.right.load(lo, hi, s)

    def vector_op(self, s):
        return self._combine(self.left.vector_op(s), self.right.vector_op(s))

    def single_op(self, i):
        return self._combine(self.left.single_op(i), self.right.single_op(i))

    def block_op(self, lo, hi, out, scratch):
        # Registers are taken in evaluation order, as `registers` counts
        # them. A leaf's view is read here, without its own block_op call.
        left, right = self.left, self.right
        held = None
        if isinstance(left, Leaf):
            a = left.read_block(lo, hi)
        elif out is not scratch.dest or out is None:
            a = out = left.block_op(lo, hi, out, scratch)
        else:
            a = held = left.block_op(lo, hi, scratch.pop() if scratch else None, scratch)
        if isinstance(right, Leaf):
            out = self._ufunc(a, right.read_block(lo, hi), out=out)
        else:
            b = right.block_op(lo, hi, scratch.pop() if scratch else None, scratch)
            out = self._ufunc(a, b, out=out)
            scratch.append(b)
        if held is not None:
            scratch.append(held)
        return out

    def __repr__(self):
        return f"({self.left!r} {self._symbol} {self.right!r})"


class AddNode(_BinaryNode):
    __slots__ = ()
    _combine = staticmethod(operator.add)
    _ufunc = np.add
    _symbol = "+"


class SubNode(_BinaryNode):
    __slots__ = ()
    _combine = staticmethod(operator.sub)
    _ufunc = np.subtract
    _symbol = "-"


class MulNode(_BinaryNode):
    __slots__ = ()
    _combine = staticmethod(operator.mul)
    _ufunc = np.multiply
    _symbol = "*"


class _UnaryNode:
    """One subtree plus a lane register of its own, kept in the slot's dict
    under the node; load_once and load pass through to the child. It takes its
    child's scratch registers: a ScaleNode passes its out down, and a root
    hands the child its own out. The base of ScaleNode and of the roots,
    which are not operands."""

    __slots__ = ("child", "dtype", "length", "register_footprint", "registers")

    def __init__(self, child: Expression):
        self.child = child = as_node(child)
        self.dtype = child.dtype
        self.length = child.length
        self.register_footprint = 1 + child.register_footprint
        self.registers = child.registers

    def load_once(self, s, backend):
        self.child.load_once(s, backend)

    def load(self, lo, hi, s):
        self.child.load(lo, hi, s)


class ScaleNode(_UnaryNode, Expression):
    """scalar * expression; the scalar is hoisted into a lane register once
    per slot in load_once, never reloaded inside the loop.

    A non-real alpha raises TypeError, and a finite one that rounds to inf
    in the element type OverflowError, when the node is built, before any
    element is touched; an explicit inf or NaN alpha follows IEEE rules.
    """

    __slots__ = ("alpha",)

    def __init__(self, alpha, child: Expression):
        if not _is_real(alpha):
            raise TypeError(f"scale factor must be a real number, got {alpha!r}")
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

    def leaves(self):
        return self.child.leaves()

    def load_once(self, s, backend):
        s[self] = backend.splat(self.alpha)
        self.child.load_once(s, backend)

    def vector_op(self, s):
        return s[self] * self.child.vector_op(s)

    def single_op(self, i):
        return self.alpha * self.child.single_op(i)

    def block_op(self, lo, hi, out, scratch):
        child = self.child
        if isinstance(child, Leaf):
            return np.multiply(self.alpha, child.read_block(lo, hi), out=out)
        v = child.block_op(lo, hi, out, scratch)
        return np.multiply(self.alpha, v, out=v)

    def __repr__(self):
        return f"({float(self.alpha)!r} * {self.child!r})"


class _Root(_UnaryNode):
    """Evaluation root over one operand expression. A root is not an
    operand: it has no operators, and as_node, so also this constructor,
    rejects one with TypeError. Only roots have the loop-wide contract
    calls; these defaults keep nothing in the temporary and do nothing."""

    __slots__ = ()

    def init(self, ts):
        pass

    def store(self, lo, hi, s):
        pass

    def cleanup(self):
        pass


class AssignNode(_Root):
    """Evaluation root writing an elementwise expression into a destination.

    The destination is never read, only written, so an out-of-place scaled
    copy really moves n reads plus n writes and nothing more. The
    destination may be the same vector as a source leaf (in-place scaling).
    Overlap at a shifted offset is unchecked, and its result depends on the
    executor and the strip. The own lane holds the computed result between
    the operation burst and the store burst. The block executor calls no
    method of this root: it hands the destination's writable window of
    each strip to the source's `block_op` as out, and copies a bare leaf
    source into it; the register rule keeps that write after every read
    of the strip.
    """

    __slots__ = ("dest",)

    def __init__(self, dest: Leaf, source: Expression):
        if not isinstance(dest, Leaf):
            raise TypeError("assignment destination must be a vector leaf")
        super().__init__(source)
        _check_agree(dest, self, "assignment")
        self.dest = dest
        # With the destination as out, the first binary node below any
        # scale nodes keeps a non-leaf left result in a register of its own.
        source = self.child
        while type(source) is ScaleNode:
            source = source.child
        if isinstance(source, _BinaryNode) and not isinstance(source.left, Leaf):
            self.registers += 1

    source = property(operator.attrgetter("child"))

    def vector_op(self, s):
        s[self] = self.child.vector_op(s)

    def store(self, lo, hi, s):
        self.dest.write_block(lo, hi, s[self])

    def single_op(self, i, ts):
        self.dest.write_element(i, self.child.single_op(i))

    def __repr__(self):
        return f"Assign({self.dest!r} <- {self.child!r})"


class SumNode(_Root):
    """Reduction root: sums the operand expression over all indices.

    The main loop adds into L lanes, the plan's fold_lanes: U*W, or up to
    256 on a long vector. Each unroll slot keeps a W-lane accumulator, and
    the stepped executor runs c = L/(U*W) groups of U slots, iteration t
    adding into group t mod c, so lane p*U*W + s*W + j is lane j of slot s
    of group p. Remainder elements add, in index order, into a scalar
    accumulator, kept in the temporary, that starts at +0. `reduction`
    adds every lane in lane order, in one pass from lane 0, then adds the
    remainder last, so a result is reproducible for a fixed plan. Every
    lane starts at +0 on both executors, so a sum whose terms are all -0
    is +0.

    The contract calls here are the stepped executor's; the block executor
    keeps the accumulators itself. It folds every strip's terms, as rows
    of L lanes, in the array the child's `block_op` writes them to, after
    adding the lanes so far into the strip's first row. That array is one
    of the root's `registers`, reused on every strip, unless the child is a
    leaf, whose terms are its own view and one strip. The masked terms end
    in a row of fewer than L lanes when U*W < L; they add into the first
    lanes. The tail is the end of the last strip, the terms past the
    masked length, added in order without another call down the tree.
    """

    __slots__ = ()

    def __init__(self, child: Expression):
        # _UnaryNode's, inlined, since a reduction is built on every call
        self.child = child = as_node(child)
        self.dtype = child.dtype
        self.length = child.length
        self.register_footprint = 1 + child.register_footprint
        # the array the child's terms go into, unless it is a leaf's view
        self.registers = child.registers + (not isinstance(child, Leaf))

    def init(self, ts):
        ts[self] = self.dtype.type(0)

    def load_once(self, s, backend):
        s[self] = backend.splat(0)
        self.child.load_once(s, backend)

    def vector_op(self, s):
        s[self] = s[self] + self.child.vector_op(s)

    def single_op(self, i, ts):
        ts[self] = ts[self] + self.child.single_op(i)

    def reduction(self, slots, ts):
        return combine_partials([s[self] for s in slots], ts[self])

    def __repr__(self):
        return f"Sum({self.child!r})"


def combine_partials(rows, remainder):
    """Add a reduction's lane accumulators, then the scalar remainder, in
    the documented fixed order: every lane in lane order, in one
    sequential pass from the first, then the remainder. `rows` is a list
    of W-lane rows, the stepped slots, or an array of the lanes in lane
    order, the block executor's. Shared by both execution paths so they
    agree bit for bit. A C-contiguous array is summed in place, so that
    the lanes make no second buffer; a list is copied first. Neither
    executor passes an empty `rows`: every plan has a slot, and the block
    executor folds nothing when no row is whole."""
    lanes = np.asarray(rows).ravel()
    # accumulate adds strictly in sequence; np.sum would add pairwise
    return np.add.accumulate(lanes, out=lanes)[-1] + remainder


def common_length(root) -> int:
    """Common element count of every leaf of a node. Nodes check it when
    they are built, before any element is touched, so this reads it."""
    return root.length


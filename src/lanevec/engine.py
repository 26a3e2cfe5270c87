"""Loop engine: plan selection and the unrolled, burst-scheduled loops.

Evaluation of one expression follows a fixed shape:

    init                          once
    load_once                     once per unroll slot
    main loop over i in steps of U*W:
        per package: a burst of loads, a burst of vector_ops,
                     a burst of stores (slot order kept inside bursts)
    scalar remainder loop         single_op per leftover index
    cleanup                       once
    reduction                     reduction roots only

Every call goes to the root, an AssignNode or a SumNode, which reaches
its operand tree through the per-slot calls, each given the register
dict of its unroll slot: load_once once with the backend, load and store
with the slot's window of W elements. Roots are not operands, so a tree
has exactly one. The root's temporary, one more dict, is the
evaluation's only loop-wide state; it is not passed down the tree, and
only init, single_op and reduction take it.

Two interchangeable executors implement that shape. The stepped executor
drives the node contract call by call and is what `call_trace` records;
packages shape only its bursts and its trace, and it is the only one that
calls single_op. The block executor is the default, because interpreter
overhead, not arithmetic, dominates here. It runs in strips, one
contiguous ufunc call per node per strip, each writing with out= into a
strip-length array (see the block_op contract in expressions). Both
roots take block_strip's length: each scratch register holds
SCRATCH_BYTES, so every root that needs one runs strips set by the dtype
alone, whatever U*W or its register count, and a root that needs none
(scal, scaled_copy, a*(x + y), a sum over a bare leaf) runs one strip
over the whole length. The tail is the end of the last strip:

- an assignment's source writes each strip straight into the
  destination's window, which the executor hands it as out; a bare leaf
  source is copied there. The register rule delays every write to the
  destination until the strip's leaves have been read, so a destination
  that is also a source leaf stays safe;
- a reduction views a strip's terms as rows of L fold lanes and adds each
  lane down the rows in iteration order, from +0, in one fold. L is the
  plan's fold_lanes, one rule for both executors: U*W, widened to up to
  256 lanes once the vector is long enough that each lane still adds at
  least 256 terms. The array the terms go into is one register, reused
  on every strip, unless they are a leaf's own view, which is one strip.
  Every strip is folded where its terms lie, into one lanes buffer; from
  the second on, the lanes so far are first added into the strip's first
  row, so each lane is carried down the rows in iteration order, as one
  fold over the whole length would carry it. The masked length is still
  a multiple of U*W, not of L, so its last row may hold fewer than L
  terms; they are added, last, into the first lanes. The tail's terms,
  fewer than U*W, are added in order and then to +0, which is the
  stepped remainder bit for bit, and no node is called again for them. A
  vector shorter than U*W folds nothing: every lane is +0, so that
  remainder is its value.

A call builds only what its executor reads. The element count is the
root's `length`, checked when the tree was built. With no plan, backend,
unroll or packages, the block executor builds no plan: an assignment's
strips read neither a plan nor a backend, and a reduction reads only U,
from select_plan's unroll rule memoized per footprint, and W, from the
default backend. Any of those overrides, stepped=True and call_trace
pass through _resolve, which checks the plan against the tree and the
backend before anything runs.

The stepped executor keeps the same L lanes as c = L/(U*W) groups of U
slot dicts, iteration t adding into group t mod c, so lane p*U*W + s*W + j
is slot s of group p, lane j. Both executors then combine the lanes in
lane order and add the remainder last (combine_partials).

Neither executor makes a temporary longer than one strip. The block
executor's scratch registers are made once per evaluation, and short ones
for a short last strip. Both commit elements in the same order and
accumulate every lane and the remainder in the same order, so their
results are bit identical; the test suite pins that equivalence.
"""

import functools
import itertools
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .expressions import AssignNode, Scratch, SumNode, combine_partials
from .lanes import _DTYPES, LaneBackend, default_backend, is_count

__all__ = [
    "UnrollPlan",
    "PlanError",
    "select_plan",
    "execute_assign",
    "execute_reduce",
    "call_trace",
    "TraceEvent",
    "UNROLL_FACTORS",
    "DEFAULT_REGISTER_BUDGET",
    "SCRATCH_BYTES",
    "block_strip",
]

UNROLL_FACTORS = (1, 2, 4, 8)
DEFAULT_REGISTER_BUDGET = 16
# Bytes of one block-executor scratch register, and so the strip length
# of every root that needs one: 32768 f32 or 16384 f64 elements. A root
# of k registers keeps k of them; a reduction's terms array is one.
# Longer strips spread each node's per-strip call over more elements;
# 256 KiB per register ran slower at cache-resident size on a 2-vCPU Xeon
# with 2 MiB of L2 per core.
SCRATCH_BYTES = 128 * 1024
# A reduction folds in more lanes than U*W, up to this many, only while
# each lane still adds at least this many terms. A fold adds one row of
# lanes per NumPy inner loop, so wider rows fold faster; 256 keeps the
# lanes one buffer of at most 2 KiB, inside the few KiB beyond its
# registers that an evaluation may make.
_FOLD_LANES = 256
# Bytes of the widest element type, whose strip is the shortest.
_WIDEST = max(t.itemsize for t in _DTYPES)
# The remainder of an empty tail; building it per call costs ~0.5 us.
_ZERO = {t: t.type(0) for t in _DTYPES}


class PlanError(ValueError):
    """Invalid or inconsistent loop-plan configuration."""


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class UnrollPlan:
    """Shape of one evaluation loop.

    unroll: slots (lane registers) processed per main-loop iteration.
    width: lanes per slot, taken from the backend.
    packages: load/op/store burst groups per iteration; each package
        covers unroll/packages consecutive slots. Only the stepped
        executor runs packages; they never change a result.
    masked_length: largest multiple of unroll*width not exceeding the
        vector length; the main loop stops there and the scalar remainder
        loop finishes the tail.
    """

    unroll: int
    width: int
    packages: int
    masked_length: int

    def __post_init__(self):
        for name in ("unroll", "width", "packages", "masked_length"):
            value = getattr(self, name)
            if not is_count(value):
                raise PlanError(f"{name} must be an integer, got {value!r}")
        if self.unroll not in UNROLL_FACTORS:
            raise PlanError(f"unsupported unroll factor {self.unroll}")
        if not _is_pow2(self.width):
            raise PlanError(f"lane width must be a power of two, got {self.width}")
        if self.packages < 1 or self.unroll % self.packages:
            raise PlanError(
                f"{self.packages} packages cannot split {self.unroll} slots evenly"
            )
        if self.masked_length < 0 or self.masked_length % self.block:
            raise PlanError(
                f"masked length {self.masked_length} is not a multiple of "
                f"{self.unroll}x{self.width}"
            )

    @property
    def block(self) -> int:
        """Elements consumed by one main-loop iteration."""
        return self.unroll * self.width

    @property
    def slots_per_package(self) -> int:
        return self.unroll // self.packages

    @property
    def fold_lanes(self) -> int:
        """Lanes a reduction under this plan folds its terms in, on both
        executors: the largest power of two L with U*W <= L <= 256 and
        256*L <= masked_length, and no longer than the shortest strip;
        U*W if there is none."""
        return _fold_lanes(self.block, self.masked_length)


def _fold_lanes(block: int, masked: int) -> int:
    """UnrollPlan.fold_lanes of a plan whose main loop adds `masked` terms
    in rows of `block` = U*W; the shortest strip is SCRATCH_BYTES of the
    widest type. Each term then passes through at most masked/L + L
    roundings in the fold and the combine, no more than masked/block +
    block, since L*L <= 256*L <= masked."""
    lanes = block
    # the first test ends the loop at once for the short vectors most
    # calls take
    while 2 * _FOLD_LANES * lanes <= masked and 2 * lanes <= min(
            _FOLD_LANES, SCRATCH_BYTES // _WIDEST):
        lanes *= 2
    return lanes


def masked_length(length: int, unroll: int, width: int) -> int:
    """Largest multiple of unroll*width that is <= length."""
    return length & ~(unroll * width - 1)


def select_plan(
    footprint: int,
    length: int,
    backend: LaneBackend,
    *,
    unroll: int = None,
    packages: int = None,
) -> UnrollPlan:
    """Pick a loop plan for an expression with the given register footprint.

    Default: the largest unroll factor in {1, 2, 4, 8} whose total lane
    register demand (unroll * footprint) fits the budget of 16; an
    expression too wide even for unroll 1 still runs at 1 and spills.
    The lane width is the backend's; a width-1 backend, the one that is
    not specialized, runs not unrolled unless an explicit unroll override
    asks otherwise. Packages default to one burst group spanning the
    whole iteration.
    """
    if not is_count(footprint) or footprint < 1:
        raise PlanError(f"register footprint must be an integer >= 1, got {footprint!r}")
    if not is_count(length) or length < 0:
        raise PlanError(f"length must be an integer >= 0, got {length!r}")

    _check_backend(backend)
    width = backend.width
    if unroll is None:
        unroll = _default_unroll(footprint, backend.specialized)
    if packages is None:
        packages = 1
    for name, value in (("unroll", unroll), ("packages", packages)):
        if not is_count(value):
            raise PlanError(f"{name} must be an integer, got {value!r}")

    return UnrollPlan(unroll, width, packages, masked_length(length, unroll, width))


def _check_backend(backend) -> None:
    if not isinstance(backend, LaneBackend):
        raise TypeError(f"backend must be a LaneBackend, got {type(backend).__name__}")


# Footprints in use are few; the bound only caps a process that makes many.
@functools.lru_cache(maxsize=256)
def _default_unroll(footprint: int, specialized: bool) -> int:
    """select_plan's default unroll factor, memoized, so that a default
    evaluation reads it without building a plan."""
    unroll = 1
    if specialized:
        for u in UNROLL_FACTORS:
            if u * footprint <= DEFAULT_REGISTER_BUDGET:
                unroll = max(unroll, u)
    return unroll


TraceEvent = namedtuple("TraceEvent", ["kind", "index", "slot"])


def _resolve(root, plan, backend, unroll, packages):
    """The backend and plan of a call that passes overrides or runs
    stepped, each checked against the tree and the other."""
    length = root.length
    if backend is None:
        backend = default_backend(root.dtype)
    _check_backend(backend)
    if backend.dtype != root.dtype:
        raise PlanError(
            f"backend element type {backend.dtype} does not match "
            f"expression element type {root.dtype}"
        )

    if plan is None:
        plan = select_plan(
            root.register_footprint,
            length,
            backend,
            unroll=unroll,
            packages=packages,
        )
    elif not isinstance(plan, UnrollPlan):
        raise TypeError(f"plan must be an UnrollPlan, got {type(plan).__name__}")
    else:
        if unroll is not None or packages is not None:
            raise PlanError("pass either a prebuilt plan or overrides, not both")
        if plan.width != backend.width:
            raise PlanError(
                f"plan width {plan.width} does not match backend width {backend.width}"
            )
        if plan.masked_length != masked_length(length, plan.unroll, plan.width):
            raise PlanError(
                f"plan was built for a different length (masked {plan.masked_length}, "
                f"vector length {length})"
            )
    return backend, plan


def _run_stepped(root, backend, plan, trace=None):
    length = root.length
    width = plan.width
    span = plan.slots_per_package
    n = plan.masked_length
    load, vector_op, store = root.load, root.vector_op, root.store
    rec = trace.append if trace is not None else None

    ts = {}
    # A reduction keeps its fold lanes as c groups of U slots; iteration t
    # adds into group t mod c.
    groups = _fold_lanes(plan.block, n) // plan.block if isinstance(root, SumNode) else 1
    slots = [{} for _ in range(groups * plan.unroll)]
    # each group's packages of (window start and end in the iteration, slot
    # number, slot), built once so that the main loop does little index
    # arithmetic
    schedules = [
        [
            [(k * width, (k + 1) * width, k, slots[p + k]) for k in range(first, first + span)]
            for first in range(0, plan.unroll, span)
        ]
        for p in range(0, len(slots), plan.unroll)
    ]

    if rec:
        rec(TraceEvent("init", None, None))
    root.init(ts)
    for k, slot in enumerate(slots):
        if rec:
            rec(TraceEvent("load_once", None, k % plan.unroll))
        root.load_once(slot, backend)

    for i, packages in zip(range(0, n, plan.block), itertools.cycle(schedules)):
        for package in packages:
            for lo, hi, k, slot in package:
                if rec:
                    rec(TraceEvent("load", i + lo, k))
                load(i + lo, i + hi, slot)
            for lo, hi, k, slot in package:
                if rec:
                    rec(TraceEvent("vector_op", i + lo, k))
                vector_op(slot)
            for lo, hi, k, slot in package:
                if rec:
                    rec(TraceEvent("store", i + lo, k))
                store(i + lo, i + hi, slot)

    for j in range(n, length):
        if rec:
            rec(TraceEvent("single_op", j, None))
        root.single_op(j, ts)

    if rec:
        rec(TraceEvent("cleanup", None, None))
    root.cleanup()

    if isinstance(root, SumNode):
        if rec:
            rec(TraceEvent("reduction", None, None))
        return root.reduction(slots, ts)
    return None


def block_strip(root, length: int) -> int:
    """Elements in one block-executor strip of a root over `length`
    elements: one scratch register's, 32768 f32 or 16384 f64, whatever
    its register count or U*W; a root that takes no register, or a
    shorter vector, runs in one strip."""
    if root.registers:
        strip = SCRATCH_BYTES // root.dtype.itemsize
        if strip < length:
            return strip
    return length or 1


def _run_block_assign(root):
    length = root.length
    strip = block_strip(root, length)
    scratch = Scratch()
    for lo in range(0, length, strip):
        hi = lo + strip
        if hi > length:
            hi = length
            scratch.clear()  # the ufuncs make the short registers
        out = scratch.dest = root.dest.write_window(lo, hi)
        values = root.child.block_op(lo, hi, out, scratch)
        if values is not out:
            out[...] = values  # a bare leaf source is copied


def _fold(rows, out):
    """The lanes of `rows`, one per column, each added down them from +0,
    into `out`, or into a new array if it is None."""
    if rows.shape[1] > 1:
        return np.add.reduce(rows, axis=0, initial=0, out=out)
    # A (k, 1) array collapses to 1-D, where add.reduce sums pairwise, so
    # the one lane is accumulated; a reduction folds in one lane only below
    # 512 terms, so the accumulate's temporary stays short.
    return np.add(np.add.accumulate(rows)[-1], _ZERO[rows.dtype], out=out)


def _run_block_reduce(root, unroll, width):
    # Lane p of the fold is column p of a strip's rows of `fold` lanes, as
    # it is lane p of the stepped slots. Every strip is folded where its
    # terms lie: in a leaf's view, which is one strip, or in the root's one
    # register, the array the child's ufunc makes on the first strip,
    # passed back as out on the later ones and viewed short on a short last
    # strip. From the second strip on, the lanes so far are first added
    # into the strip's first row, so that row is never a leaf's. Strips are
    # whole rows, as a strip holds a power of two no shorter than a row;
    # only the last one ends in a part row of masked terms, which adds into
    # the first lanes, and in the tail.
    length = root.length
    zero = _ZERO[root.dtype]
    if not length:
        return zero  # every lane's +0, and no walk of the tree
    n = masked_length(length, unroll, width)
    terms = root.child.block_op
    scratch = None  # a leaf's view takes no register and needs no pool
    if root.registers:
        scratch = Scratch()
        scratch.dest = None
    if not n:  # no row, so every lane is +0: the remainder is the sum
        return zero + np.add.accumulate(terms(0, length, None, scratch))[-1]
    fold = _fold_lanes(unroll * width, n)
    part = n % fold  # masked terms past the last whole row of lanes
    strip = block_strip(root, length)
    values = lanes = None
    for lo in range(0, length, strip):
        hi = lo + strip
        if hi > length:
            hi = length
            scratch.clear()
            values = values[: hi - lo]
        values = terms(lo, hi, values, scratch)
        rows = values[: n - part - lo].reshape(-1, fold)
        if len(rows):  # the last strip may hold only a part row and the tail
            if lanes is not None:
                np.add(lanes, rows[0], out=rows[0])
            lanes = _fold(rows, lanes)
    if part:
        np.add(lanes[:part], values[n - part - lo : n - lo], out=lanes[:part])
    # The tail's terms are added in order, then to +0: the stepped
    # remainder, which starts at +0, bit for bit, -0 terms included.
    remainder = zero
    if length > n:
        remainder = zero + np.add.accumulate(values[n - lo :])[-1]
    return combine_partials(lanes, remainder)


def execute_assign(
    root,
    plan: UnrollPlan = None,
    *,
    backend: LaneBackend = None,
    unroll: int = None,
    packages: int = None,
    stepped: bool = False,
) -> None:
    """Evaluate an assignment tree, writing every destination element once."""
    if not isinstance(root, AssignNode):
        raise TypeError("execute_assign requires an assignment root")
    if (stepped or plan is not None or backend is not None or unroll is not None
            or packages is not None):
        # the block executor reads neither; they are checked all the same
        backend, plan = _resolve(root, plan, backend, unroll, packages)
        if stepped:
            return _run_stepped(root, backend, plan)
    _run_block_assign(root)


def execute_reduce(
    root,
    plan: UnrollPlan = None,
    *,
    backend: LaneBackend = None,
    unroll: int = None,
    packages: int = None,
    stepped: bool = False,
):
    """Evaluate a reduction tree and return its scalar value."""
    if not isinstance(root, SumNode):
        raise TypeError("execute_reduce requires a reduction root")
    if (stepped or plan is not None or backend is not None or unroll is not None
            or packages is not None):
        backend, plan = _resolve(root, plan, backend, unroll, packages)
        if stepped:
            return _run_stepped(root, backend, plan)
        return _run_block_reduce(root, plan.unroll, plan.width)
    # the default plan's U and W, without building it
    backend = default_backend(root.dtype)
    return _run_block_reduce(
        root, _default_unroll(root.register_footprint, backend.specialized), backend.width
    )


def call_trace(
    root,
    plan: UnrollPlan = None,
    *,
    backend: LaneBackend = None,
    unroll: int = None,
    packages: int = None,
) -> list:
    """Run a real stepped evaluation and record every contract call.

    Returns TraceEvent(kind, index, slot) tuples in call order; kinds are
    init, load_once, load, vector_op, store, single_op, cleanup and, for
    reduction roots, reduction. index is the element index of lane calls,
    slot the unroll slot, None where not applicable. load_once runs once
    per slot: U times, or, for a reduction whose plan folds in c =
    fold_lanes/(U*W) > 1 groups of slots, c*U times, slots 0..U-1 of each
    group in turn.
    """
    if not isinstance(root, (AssignNode, SumNode)):
        raise TypeError("call_trace requires an assignment or reduction root")
    trace = []
    _run_stepped(root, *_resolve(root, plan, backend, unroll, packages), trace)
    return trace

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
roots take block_strip's length: each strip array a root's tree makes,
one of its `registers`, holds SCRATCH_BYTES, so every root that makes one
runs strips set by the dtype alone, whatever U*W or its register count,
and a root that makes none (scal, scaled_copy, a*(x + y), a sum over a
bare leaf) runs one strip over the whole length. The tail is the end of
the last strip:

- an assignment's source writes each strip straight into the
  destination's window, which the executor hands it as out; a bare leaf
  source is copied there. The source writes that out only with its last
  ufunc, after the strip's leaves have been read, so a destination that
  is also a source leaf stays safe;
- a reduction views a strip's terms as rows of L fold lanes and adds each
  lane down the rows in iteration order, from its first term, in one
  fold (a stepped lane starts at +0; see SumNode for why the results
  still agree bit for bit, -0 terms included). L is the
  plan's fold_lanes, one rule for both executors: U*W, widened to up to
  256 lanes once the vector is long enough that each lane still adds at
  least 256 terms. A strip's terms are the array the child's block_op
  returns given None, one of the root's registers, made afresh on every
  strip once the last strip's is freed, or a leaf's own view, which is
  one strip. Every strip is folded where its terms lie, into one lanes
  buffer; from the second on, the lanes so far are first added into the
  strip's first row, so each lane is carried down the rows in iteration
  order, as one fold over the whole length would carry it. The masked
  length is still a multiple of U*W, not of L, so its last row may hold
  fewer than L terms; they are added, last, into the first lanes. The tail's terms,
  fewer than U*W, are added in order and then to +0, which is the
  stepped remainder bit for bit, and no node is called again for them. A
  vector shorter than U*W folds nothing: every lane is +0, so that
  remainder is its value. A vector of one row and a tail, U*W <= n <
  2*U*W, would fold the row into U*W lanes of one term each and add them
  in lane order; one accumulate over the row gives those bits, with no
  fold and no combine_partials. So does one accumulate over the terms of
  one lane, as a plan with U*W = 1 keeps below 512 terms: the lane's sum S
  would be folded to S + 0 and the remainder R added, and (S + 0) + R is
  S + R, since R is never -0.

A call builds only what its executor reads. The element count is the
root's `length`, checked when the tree was built. A default block call,
one with no plan, backend, unroll or packages, runs from its entry point
and builds no plan: an assignment's strips read neither a plan nor a
backend, and a reduction reads only U, from select_plan's unroll rule,
and W, from the default backend, both memoized per element type and
footprint. Every other call, stepped=True and call_trace included, goes
through _evaluate, which checks `stepped` and picks the executor. It
takes its backend, U and packages from _resolve: without an override,
the same default numbers and one package, with no plan built; with one,
those of the plan select_plan fits to the tree, the backend and the
overrides. A given plan lends that fit its unroll and packages, and runs
only if it equals the fit. All of it is checked before anything runs.

The stepped executor keeps the same L lanes as c = L/(U*W) groups of U
slot dicts, iteration t adding into group t mod c, so lane p*U*W + s*W + j
is slot s of group p, lane j. Both executors then combine the lanes in
lane order and add the remainder last (combine_partials).

Neither executor makes a temporary longer than one strip. The block
executor holds at most a root's registers in strip arrays at once, and
NumPy's allocator reuses their memory from strip to strip; a short last
strip's are short. Both commit elements in the same order and
accumulate every lane and the remainder in the same order, so their
results are bit identical; the test suite pins that equivalence.
"""

import functools
import itertools
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .expressions import AssignNode, SumNode, combine_partials
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
# Bytes of one block-executor strip array, and so the strip length of
# every root that makes one: 32768 f32 or 16384 f64 elements. A root of k
# registers holds k of them at once; a reduction's terms array is one.
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

    if not isinstance(backend, LaneBackend):
        raise TypeError(f"backend must be a LaneBackend, got {type(backend).__name__}")
    width = backend.width
    if unroll is None:
        unroll = _default_unroll(footprint, backend.specialized)
    if packages is None:
        packages = 1
    for name, value in (("unroll", unroll), ("packages", packages)):
        if not is_count(value):
            raise PlanError(f"{name} must be an integer, got {value!r}")

    return UnrollPlan(unroll, width, packages, masked_length(length, unroll, width))


# Footprints in use are few; the bounds only cap a process that makes many.
@functools.lru_cache(maxsize=256)
def _default_unroll(footprint: int, specialized: bool) -> int:
    """select_plan's default unroll factor, memoized."""
    unroll = 1
    if specialized:
        for u in UNROLL_FACTORS:
            if u * footprint <= DEFAULT_REGISTER_BUDGET:
                unroll = max(unroll, u)
    return unroll


@functools.lru_cache(maxsize=256)
def _default_numbers(dtype, footprint: int):
    """The default plan's backend, unroll and packages for a tree of this
    element type and register footprint, memoized, so that a default
    evaluation reads them without building a plan."""
    backend = default_backend(dtype)
    return backend, _default_unroll(footprint, backend.specialized), 1


TraceEvent = namedtuple("TraceEvent", ["kind", "index", "slot"])


def _resolve(root, plan, backend, unroll, packages):
    """The backend, unroll and packages of a call that is not a default
    block call. With no override they are the default plan's numbers, and
    no plan is built. Otherwise they are the plan select_plan fits to the
    tree, the backend (the default one if none is given) and the unroll
    and packages overrides, or a given plan's own; a given plan must equal
    that fit. All of it is checked before anything runs."""
    if plan is None and backend is None and unroll is None and packages is None:
        return _default_numbers(root.dtype, root.register_footprint)
    if backend is None:
        backend = default_backend(root.dtype)
    if plan is not None:
        if not isinstance(plan, UnrollPlan):
            raise TypeError(f"plan must be an UnrollPlan, got {type(plan).__name__}")
        if unroll is not None or packages is not None:
            raise PlanError("pass either a prebuilt plan or overrides, not both")
        unroll, packages = plan.unroll, plan.packages
    fitted = select_plan(
        root.register_footprint, root.length, backend, unroll=unroll, packages=packages
    )
    if backend.dtype != root.dtype:
        raise PlanError(
            f"backend element type {backend.dtype} does not match "
            f"expression element type {root.dtype}"
        )
    if plan is not None and plan != fitted:
        raise PlanError(f"{plan} does not fit this call, for which select_plan gives {fitted}")
    return backend, fitted.unroll, fitted.packages


def _run_stepped(root, backend, unroll, packages, trace=None):
    """The stepped executor: drive the node contract call by call, in
    `unroll` slots of the backend's width, each iteration in `packages`
    bursts, up to root.length rounded down to a multiple of U*W, then
    single_op on the tail. It takes the plan's numbers from _resolve, not
    a plan, so a call without overrides, call_trace's included, builds
    none; call_trace passes `trace`, a list the events go into."""
    length = root.length
    width = backend.width
    block = unroll * width
    span = unroll // packages
    n = length & -block
    load, vector_op, store = root.load, root.vector_op, root.store
    rec = trace.append if trace is not None else None

    ts = {}
    # A reduction keeps its fold lanes as c groups of U slots; iteration t
    # adds into group t mod c.
    groups = _fold_lanes(block, n) // block if isinstance(root, SumNode) else 1
    slots = [{} for _ in range(groups * unroll)]
    # each group's packages of (window start and end in the iteration, slot
    # number, slot), built once so that the main loop does little index
    # arithmetic, and only if it runs
    schedules = [
        [
            [(k * width, (k + 1) * width, k, slots[p + k]) for k in range(first, first + span)]
            for first in range(0, unroll, span)
        ]
        for p in range(0, len(slots), unroll)
    ] if n else ()

    if rec:
        rec(TraceEvent("init", None, None))
    root.init(ts)
    for k, slot in enumerate(slots):
        if rec:
            rec(TraceEvent("load_once", None, k % unroll))
        root.load_once(slot, backend)

    for i, group in zip(range(0, n, block), itertools.cycle(schedules)):
        for package in group:
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
    elements: one strip array's, 32768 f32 or 16384 f64, whatever its
    register count or U*W; a vector no longer than that, or a root that
    makes no strip array, runs in one strip. The length is compared
    first, so only a vector longer than one strip walks the tree for
    root.registers."""
    strip = SCRATCH_BYTES // root.dtype.itemsize
    if strip < length and root.registers:
        return strip
    return length or 1


def _run_block_assign(root):
    length = root.length
    strip = block_strip(root, length)
    source, dest = root.child, root.dest
    for lo in range(0, length, strip):
        hi = lo + strip
        if hi > length:
            hi = length
        out = dest.write_window(lo, hi)
        values = source.block_op(lo, hi, out)
        if values is not out:
            out[...] = values  # a bare leaf source is copied


def _fold(rows, out):
    """The lanes of `rows`, one per column, at least two, each added down
    them from its first term, into `out`, or into a new array if it is
    None."""
    # no initial=0, which costs about 1 us: a lane of -0 terms then holds
    # -0, which the remainder, never -0 and added last, makes +0
    return np.add.reduce(rows, axis=0, out=out)


def _run_block_reduce(root, unroll, width):
    # Lane p of the fold is column p of a strip's rows of `fold` lanes, as
    # it is lane p of the stepped slots. Every strip is folded where its
    # terms lie: in a leaf's view, which is one strip, or in the array the
    # child's block_op returns given None, which is never a leaf's view.
    # From the second strip on, the lanes so far are first added into the
    # strip's first row, so that row is never a vector's. Strips are whole
    # rows, as a strip holds a power of two no shorter than a row; only the
    # last one ends in a part row of masked terms, which adds into the
    # first lanes, and in the tail.
    length = root.length
    zero = _ZERO[root.dtype]
    if not length:
        return zero  # the remainder's +0, and no walk of the tree
    block = unroll * width
    n = length & -block  # masked_length, inline: a call costs more than its line
    terms = root.child.block_op
    # At most one row, or one lane (U*W = 1 folds in one below 512 terms):
    # one strip, whose masked terms add in one in-order pass.
    fold = n > block and _fold_lanes(block, n)
    if fold < 2:
        lo = 0
        values = terms(0, length, None)
    else:
        strip = block_strip(root, length)
        part = n % fold  # masked terms past the last whole row of lanes
        lanes = None
        for lo in range(0, length, strip):
            hi = lo + strip
            if hi > length:
                hi = length
            # free the last strip's terms before the child makes the next
            rows = values = None
            values = terms(lo, hi, None)
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
    if fold > 1:
        return combine_partials(lanes, remainder)
    if not n:  # no row, so the remainder is the sum
        return remainder
    # Lanes of one term each, or one lane, would be added in lane order by
    # combine_partials: one accumulate over the masked terms does both, and
    # its S + R is the one lane's (S + 0) + R, since R is never -0.
    return np.add.accumulate(values[:n])[-1] + remainder


def _evaluate(root, plan, backend, unroll, packages, stepped, trace=None):
    """Run a call that is not a default block call on the executor that
    `stepped` names, True or False; anything else raises TypeError. Only
    the stepped executor records into `trace`."""
    backend, unroll, packages = _resolve(root, plan, backend, unroll, packages)
    if stepped is True:
        return _run_stepped(root, backend, unroll, packages, trace)
    if stepped is not False:
        raise TypeError(f"stepped must be True or False, got {stepped!r}")
    if isinstance(root, SumNode):
        return _run_block_reduce(root, unroll, backend.width)
    return _run_block_assign(root)


def execute_assign(
    root,
    plan: UnrollPlan = None,
    *,
    backend: LaneBackend = None,
    unroll: int = None,
    packages: int = None,
    stepped: bool = False,
) -> None:
    """Evaluate an assignment tree, writing every destination element once.
    `stepped` is True or False; anything else raises TypeError.

    An assignment is not atomic. A ufunc that raises under the caller's
    np.errstate (over="raise", invalid="raise") leaves the destination
    with new values in a prefix of whole strips on the block executor,
    or of whole U*W iterations on the stepped one, and old values after
    it. A reduction that raises writes no vector. Under NumPy's default
    error state an overflow only warns and the call runs to the end: one
    RuntimeWarning per strip on the block executor, and one per ufunc
    call or tail element that overflows on the stepped one (3 against
    4,420 for 70,000 f32 elements, all at 1e30, squared)."""
    if not isinstance(root, AssignNode):
        raise TypeError("execute_assign requires an assignment root")
    if stepped is False and plan is None and backend is None and unroll is None and packages is None:
        return _run_block_assign(root)
    # the block executor reads no plan or backend; an override is checked
    # all the same
    return _evaluate(root, plan, backend, unroll, packages, stepped)


def execute_reduce(
    root,
    plan: UnrollPlan = None,
    *,
    backend: LaneBackend = None,
    unroll: int = None,
    packages: int = None,
    stepped: bool = False,
):
    """Evaluate a reduction tree and return its scalar value. `stepped` is
    True or False; anything else raises TypeError."""
    if not isinstance(root, SumNode):
        raise TypeError("execute_reduce requires a reduction root")
    if stepped is False and plan is None and backend is None and unroll is None and packages is None:
        backend, unroll, _ = _default_numbers(root.dtype, root.register_footprint)
        return _run_block_reduce(root, unroll, backend.width)
    return _evaluate(root, plan, backend, unroll, packages, stepped)


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
    group in turn. Without overrides it runs the default plan's numbers
    and builds no plan, as stepped=True does.
    """
    if not isinstance(root, (AssignNode, SumNode)):
        raise TypeError("call_trace requires an assignment or reduction root")
    trace = []
    _evaluate(root, plan, backend, unroll, packages, True, trace)
    return trace

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

- an assignment's root writes each strip straight into the
  destination. The register rule delays every write to the destination
  until the strip's leaves have been read, so a destination that is
  also a source leaf stays safe;
- a reduction views a strip's terms as rows of U*W lanes, one main-loop
  iteration per row, and one fold adds each lane down the rows in
  iteration order, from +0. The array its terms go into is one register,
  unless they are a leaf's own view. One strip is folded where block_op
  leaves it; several write theirs into a fold buffer, below a row that
  holds the lanes so far. The tail's terms, fewer than a row, are added
  in order and then to +0, which is the stepped remainder bit for bit,
  and no node is called again for them. A vector shorter than a row
  folds nothing: every lane is +0, so that remainder is its value.

A call builds only what its executor reads. The element count is the
root's `length`, checked when the tree was built. With no plan, backend,
unroll or packages, the block executor builds no plan: an assignment's
strips read neither a plan nor a backend, and a reduction reads only U,
from select_plan's unroll rule memoized per footprint, and W, from the
default backend. Any of those overrides, stepped=True and call_trace
pass through _resolve, which checks the plan against the tree and the
backend before anything runs.

Neither executor makes a temporary longer than one strip. The block
executor's scratch registers are made once per evaluation, and short ones
for a short last strip. Both commit elements in the same order and
accumulate every lane and the remainder in the same order, so their
results are bit identical; the test suite pins that equivalence.
"""

import functools
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .expressions import AssignNode, Scratch, SumNode, combine_partials
from .lanes import LaneBackend, default_backend, is_count

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
# The remainder of an empty tail; building it per call costs ~0.5 us.
_ZERO = {np.dtype(t): np.dtype(t).type(0) for t in (np.float32, np.float64)}


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


def _overridden(plan, backend, unroll, packages) -> bool:
    """Whether a call passes anything _resolve must check."""
    return not (plan is None and backend is None and unroll is None and packages is None)


def _run_stepped(root, backend, plan, reduce_root, trace=None):
    length = root.length
    width = plan.width
    span = plan.slots_per_package
    n = plan.masked_length
    load, vector_op, store = root.load, root.vector_op, root.store
    rec = trace.append if trace is not None else None

    ts = {}
    slots = [{} for _ in range(plan.unroll)]
    # each package's (window start and end in the iteration, slot number,
    # slot), built once so that the main loop does little index arithmetic
    packages = [
        [(k * width, (k + 1) * width, k, slots[k]) for k in range(first, first + span)]
        for first in range(0, plan.unroll, span)
    ]

    if rec:
        rec(TraceEvent("init", None, None))
    root.init(ts)
    for k, slot in enumerate(slots):
        if rec:
            rec(TraceEvent("load_once", None, k))
        root.load_once(slot, backend)

    for i in range(0, n, plan.block):
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

    if reduce_root:
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
    commit = root.block_commit
    scratch = Scratch()
    for lo in range(0, length, strip):
        hi = lo + strip
        if hi > length:
            hi = length
            scratch.clear()  # the ufuncs make the short registers
        commit(lo, hi, scratch)


def _fold(rows):
    """The lanes of `rows`, one per column, each added down them from +0."""
    if rows.shape[1] > 1:
        return np.add.reduce(rows, axis=0, initial=0)
    # A (k, 1) array collapses to 1-D, where add.reduce sums pairwise, so
    # the one lane is accumulated a strip at a time, each strip copied in
    # behind the running total: a leaf's whole view makes no temporary
    # longer than a strip.
    lane = np.zeros(1, rows.dtype)
    step = SCRATCH_BYTES // rows.itemsize
    for lo in range(0, len(rows), step):
        sums = np.concatenate((lane, rows[lo : lo + step, 0]))
        lane = np.add.accumulate(sums, out=sums)[-1:]
    return lane


def _run_block_reduce(root, unroll, width):
    # Lane j of slot s is column s*width + j of a strip's rows. One strip
    # is folded where block_op leaves its terms; several write theirs
    # below row 0 of a fold buffer, which holds the lanes so far. Only the
    # last strip ends in a part row: its terms past n are the tail.
    length = root.length
    zero = _ZERO[root.dtype]
    if not length:
        return zero  # every lane's +0, and no walk of the tree
    block = unroll * width
    n = length - length % block
    strip = block_strip(root, length)
    terms = root.child.block_op
    scratch = None  # a leaf's view takes no register and needs no pool
    if root.registers:
        scratch = Scratch()
        scratch.dest = None
    if strip >= length:
        lo = 0
        values = terms(0, length, None, scratch)
        if not n:  # no row, so every lane is +0: the remainder is the sum
            return zero + np.add.accumulate(values)[-1]
        lanes = _fold(values[:n].reshape(-1, block))
    else:
        buf = np.zeros((strip // block + 1, block), root.dtype)
        flat = buf.ravel()
        for lo in range(0, length, strip):
            hi = lo + strip
            if hi > length:
                hi = length
                scratch.clear()
            rows = (hi - lo) // block
            values = terms(lo, hi, flat[block : block + hi - lo], scratch)
            if rows:  # the last strip may hold only tail terms
                lanes = buf[0] = _fold(buf[: rows + 1])
    # The tail's terms are added in order, then to +0: the stepped
    # remainder, which starts at +0, bit for bit, -0 terms included.
    remainder = zero
    if length > n:
        remainder = zero + np.add.accumulate(values[n - lo :])[-1]
    return combine_partials(lanes.reshape(unroll, width), remainder)


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
    if stepped or _overridden(plan, backend, unroll, packages):
        # the block executor reads neither; they are checked all the same
        backend, plan = _resolve(root, plan, backend, unroll, packages)
        if stepped:
            return _run_stepped(root, backend, plan, reduce_root=False)
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
    if stepped or _overridden(plan, backend, unroll, packages):
        backend, plan = _resolve(root, plan, backend, unroll, packages)
        if stepped:
            return _run_stepped(root, backend, plan, reduce_root=True)
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
    slot the unroll slot, None where not applicable.
    """
    if not isinstance(root, (AssignNode, SumNode)):
        raise TypeError("call_trace requires an assignment or reduction root")
    backend, plan = _resolve(root, plan, backend, unroll, packages)
    trace = []
    _run_stepped(root, backend, plan, reduce_root=isinstance(root, SumNode), trace=trace)
    return trace

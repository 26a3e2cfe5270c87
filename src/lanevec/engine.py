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
strip-length array (see the block_op contract in expressions):

- an assignment's root writes each strip straight into the
  destination. Its scratch registers share SCRATCH_BYTES, so its strip
  length follows from its register count, in whole 64-byte lines
  (whatever U*W is); a tree that needs no register (scal, scaled_copy,
  a*(x + y)) runs as one call per node over the whole length. The
  register rule delays every write to the destination until the strip's
  leaves have been read, so a destination that is also a source leaf
  stays safe. The tail is just the end of the last strip, since every
  result is elementwise;
- a sum over a bare leaf views the masked length as rows of U*W lanes,
  one main-loop iteration per row, and one fold down the rows adds each
  lane's elements in iteration order, with no strip and no copy. Any
  other reduction runs in strips sized like an assignment's, with its
  fold buffer as one more register and whole iterations per strip; a
  strip's terms are written into the rows of that buffer, whose first
  row holds the slot accumulators, and the same fold adds them. Every
  lane starts at +0. The tail's terms, fewer than a row, come from one
  more call into an array of its own and are added in order.

A call builds only what its executor reads. The element count is the
root's `length`, checked when the tree was built. With no plan, backend,
unroll or packages, the block executor builds no plan: an assignment's
strips read neither a plan nor a backend, and a reduction reads only U,
from select_plan's unroll rule memoized per footprint, and W, from the
default backend. Any of those overrides, stepped=True and call_trace
pass through _resolve, which checks the plan against the tree and the
backend before anything runs.

Neither executor makes a temporary longer than one strip, and the block
executor's scratch registers are made once per evaluation. Both commit
elements in the same order and accumulate every lane and the remainder in
the same order, so their results are bit identical; the test suite pins
that equivalence.
"""

import functools
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .expressions import AssignNode, Leaf, Scratch, SumNode, combine_partials
from .lanes import CONTAINER_ALIGNMENT, LaneBackend, default_backend

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
    "assign_strip",
    "reduce_strip",
]

UNROLL_FACTORS = (1, 2, 4, 8)
DEFAULT_REGISTER_BUDGET = 16
# Bytes shared by the scratch registers of one block-executor strip, so
# that they stay in L2: one register gets 32768 f32 or 16384 f64 elements
# per strip, four get a quarter of that each. A reduction's fold buffer
# counts as one more register, so `dot` runs strips of one register.
SCRATCH_BYTES = 128 * 1024


class PlanError(ValueError):
    """Invalid or inconsistent loop-plan configuration."""


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class UnrollPlan:
    """Shape of one evaluation loop.

    unroll: slots (lane vectors) processed per main-loop iteration.
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
        # a bool is an int, and True would pass as 1
        if bool in (type(self.unroll), type(self.packages)):
            raise PlanError("unroll and packages are counts, not bools")
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
    if footprint < 1:
        raise PlanError(f"register footprint must be >= 1, got {footprint}")
    if length < 0:
        raise PlanError(f"length must be >= 0, got {length}")

    width = backend.width
    if unroll is None:
        unroll = _default_unroll(footprint, backend.specialized)
    if packages is None:
        packages = 1

    return UnrollPlan(unroll, width, packages, masked_length(length, unroll, width))


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
    elif not isinstance(backend, LaneBackend):
        raise TypeError(f"backend must be a LaneBackend, got {type(backend).__name__}")
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


def _strip(registers: int, dtype, length: int) -> int:
    """The strip rule of assign_strip, for `registers` registers."""
    if registers:
        lines = SCRATCH_BYTES // (registers * CONTAINER_ALIGNMENT) or 1
        strip = lines * (CONTAINER_ALIGNMENT // dtype.itemsize)
        if strip < length:
            return strip
    return length or 1


def assign_strip(root, length: int) -> int:
    """Elements in one block-executor strip of an assignment root: its
    scratch registers share SCRATCH_BYTES in whole 64-byte lines, at least
    one line each; a root that needs no register, or a shorter vector,
    runs in one strip."""
    return _strip(root.registers, root.dtype, length)


def reduce_strip(root, block: int, length: int) -> int:
    """Elements in one block-executor strip of a reduction root over the
    `length` elements of its main loop, `block` (U*W) per iteration: the
    rule of assign_strip with the fold buffer as one more register, cut
    to whole iterations, at least one."""
    strip = _strip(root.registers + 1, root.dtype, length)
    return max(strip - strip % block, block)


def _run_block_assign(root):
    length = root.length
    strip = assign_strip(root, length)
    commit = root.block_commit
    scratch = Scratch()
    for lo in range(0, length, strip):
        hi = lo + strip
        if hi > length:
            hi = length
            scratch.fit(hi - lo)
        commit(lo, hi, scratch)


def _run_block_reduce(root, unroll, width):
    length = root.length
    block = unroll * width
    n = masked_length(length, unroll, width)
    child = root.child
    terms = child.block_op
    scratch = Scratch()
    scratch.dest = None
    if isinstance(child, Leaf) and block > 1:
        # Row r of the view holds main-loop iteration r, lane j of slot s
        # at column s*width + j; the fold adds each column in row order.
        # At U*W = 1 the view would collapse to 1-D, so it takes strips.
        view = child.read_block(0, n).reshape(-1, block)
        lanes = np.add.reduce(view, axis=0, initial=0)
    else:
        # Row 0 holds the slot-accumulator lanes; a strip's terms are
        # written into the rows below it, one iteration per row, and the
        # fold writes into `lanes`, not over its own input row 0.
        strip = reduce_strip(root, block, n)
        buf = np.zeros((min(strip, n) // block + 1, block), dtype=root.dtype)
        flat = buf.ravel()
        lanes = buf[0].copy()
        for lo in range(0, n, strip):
            hi = lo + strip
            if hi > n:
                hi = n
                scratch.fit(hi - lo)
            rows = (hi - lo) // block
            out = flat[block : block + hi - lo]
            values = terms(lo, hi, out, scratch)
            if values is not out:
                out[...] = values  # a leaf's own storage is copied
            if block > 1:
                np.add.reduce(buf[: rows + 1], axis=0, out=lanes)
            else:
                # a (rows, 1) buffer collapses to 1-D, where add.reduce
                # sums pairwise; accumulate stays sequential
                lanes = np.add.accumulate(buf[: rows + 1], axis=0)[-1]
            buf[0] = lanes
    # The tail's terms are added in order. The stepped executor adds them
    # to a remainder that starts at +0; starting at the first term instead
    # differs only in giving -0 for a tail of -0 terms, and that vanishes
    # when the remainder is added to the lane total, which is never -0.
    remainder = root.dtype.type(0)
    if length > n:
        # fewer terms than a row: the ufunc makes their array
        scratch.fit(length - n)
        remainder = np.add.accumulate(terms(n, length, None, scratch))[-1]
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

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

Two interchangeable executors implement that shape. The stepped executor
drives the node contract call by call and is what `call_trace` records;
packages shape only its bursts and its trace, and it is the only one that
calls single_op. The block executor is the default, because interpreter
overhead, not arithmetic, dominates here. It runs in strips, one
contiguous array operation per node per strip:

- an assignment strip is STRIP_BYTES bytes (STRIP_BYTES // itemsize
  elements, whatever U*W is) and is computed in full before it is
  written, so a destination that is also a source leaf stays safe; the
  tail is just the end of the last strip, since every result is
  elementwise;
- a reduction strip is STRIP_ITERATIONS main-loop iterations; it fills
  the rows of a buffer whose first row holds the slot accumulators, and
  one fold down the rows adds each lane's terms in iteration order; the
  tail's terms come from one more array operation and are added in
  order.

Neither executor makes a temporary longer than one strip. Both commit
elements in the same order and accumulate every lane and the remainder in
the same order, so their results are bit identical; the test suite pins
that equivalence.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .expressions import AssignNode, combine_partials, common_length
from .lanes import LaneBackend, default_backend, scalar_backend, wide_backend

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
    "STRIP_BYTES",
    "STRIP_ITERATIONS",
]

UNROLL_FACTORS = (1, 2, 4, 8)
DEFAULT_REGISTER_BUDGET = 16
# Bytes of each temporary in one block-executor assignment strip: 8192
# f32 or 4096 f64 elements, so a strip's temporaries stay in L2. A
# main-loop iteration is at most 8 slots of 64 bytes, so a strip always
# holds whole iterations.
STRIP_BYTES = 32 * 1024
# Main-loop iterations in one block-executor reduction strip: at most
# STRIP_BYTES, and fewer, shorter strips for a plan with a smaller U*W, so
# unrolling still cuts a reduction's per-strip interpreter cost.
STRIP_ITERATIONS = 64


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
    caps,
    *,
    unroll: int = None,
    packages: int = None,
    register_budget: int = None,
) -> UnrollPlan:
    """Pick a loop plan for an expression with the given register footprint.

    Default: the largest unroll factor in {1, 2, 4, 8} whose total lane
    register demand (unroll * footprint) fits the budget of 16; an
    expression too wide even for unroll 1 still runs at 1 and spills.
    A non-specialized backend runs unvectorized and not unrolled unless
    an explicit unroll override asks otherwise. Packages default to one
    burst group spanning the whole iteration.
    """
    if footprint < 1:
        raise PlanError(f"register footprint must be >= 1, got {footprint}")
    if length < 0:
        raise PlanError(f"length must be >= 0, got {length}")
    if register_budget is None:
        register_budget = DEFAULT_REGISTER_BUDGET

    width = caps.width
    if unroll is None:
        if caps.specialized:
            unroll = 1
            for u in UNROLL_FACTORS:
                if u * footprint <= register_budget:
                    unroll = max(unroll, u)
        else:
            unroll = 1
    elif unroll not in UNROLL_FACTORS:
        raise PlanError(
            f"unroll override must be one of {UNROLL_FACTORS}, got {unroll}"
        )

    if packages is None:
        packages = 1

    return UnrollPlan(unroll, width, packages, masked_length(length, unroll, width))


TraceEvent = namedtuple("TraceEvent", ["kind", "index", "slot"])


def _resolve(root, plan, backend, unroll, packages):
    length = common_length(root)
    if backend is None:
        if plan is not None and plan.width == 1:
            backend = scalar_backend(root.dtype)
        elif plan is not None:
            backend = wide_backend(root.dtype, plan.width)
        else:
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
            backend.caps,
            unroll=unroll,
            packages=packages,
        )
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
    return length, backend, plan


def _run_stepped(root, backend, plan, length, reduce_root, trace=None):
    width = plan.width
    span = plan.slots_per_package
    n = plan.masked_length
    rec = trace.append if trace is not None else None

    ts = root.make_temporary(backend)
    slots = [root.make_storage(backend) for _ in range(plan.unroll)]

    if rec:
        rec(TraceEvent("init", None, None))
    root.init(ts)
    for s, storage in enumerate(slots):
        if rec:
            rec(TraceEvent("load_once", None, s))
        root.load_once(storage, ts)

    i = 0
    while i < n:
        for p in range(plan.packages):
            first = p * span
            base = i + first * width
            for k in range(span):
                if rec:
                    rec(TraceEvent("load", base + k * width, first + k))
                root.load(base + k * width, slots[first + k], ts)
            for k in range(span):
                if rec:
                    rec(TraceEvent("vector_op", base + k * width, first + k))
                root.vector_op(base + k * width, slots[first + k], ts)
            for k in range(span):
                if rec:
                    rec(TraceEvent("store", base + k * width, first + k))
                root.store(base + k * width, slots[first + k], ts)
        i += plan.block

    for j in range(n, length):
        if rec:
            rec(TraceEvent("single_op", j, None))
        root.single_op(j, ts)

    if rec:
        rec(TraceEvent("cleanup", None, None))
    root.cleanup(ts)

    if reduce_root:
        if rec:
            rec(TraceEvent("reduction", None, None))
        return root.reduction(slots, ts)
    return None


def _run_block_assign(root, length):
    strip = STRIP_BYTES // root.dtype.itemsize
    commit = root.block_commit
    for lo in range(0, length, strip):
        commit(lo, min(lo + strip, length))


def _run_block_reduce(root, plan, length):
    block = plan.block
    n = plan.masked_length
    strip = STRIP_ITERATIONS * block
    terms = root.child.block_op
    # Row 0 holds the flat slot-accumulator lanes (slot s at
    # [s*width, (s+1)*width)); a strip's terms fill the rows below it, one
    # main-loop iteration per row, and a fold down the rows adds them to
    # each lane in iteration order.
    buf = np.zeros((min(STRIP_ITERATIONS, n // block) + 1, block), dtype=root.dtype)
    for lo in range(0, n, strip):
        hi = min(lo + strip, n)
        rows = (hi - lo) // block
        buf[1 : rows + 1] = terms(lo, hi).reshape(rows, block)
        if block > 1:
            buf[0] = np.add.reduce(buf[: rows + 1], axis=0)
        else:
            # a (rows, 1) buffer collapses to 1-D, where add.reduce sums
            # pairwise; accumulate stays sequential
            buf[0] = np.add.accumulate(buf[: rows + 1], axis=0)[-1]
    # The tail's terms are added in order. The stepped executor adds them
    # to a remainder that starts at +0; starting at the first term instead
    # differs only in giving -0 for a tail of -0 terms, and that vanishes
    # when the remainder is added to the lane total, which is never -0.
    remainder = root.dtype.type(0)
    if length > n:
        remainder = np.add.accumulate(terms(n, length))[-1]
    return combine_partials(buf[0].reshape(plan.unroll, plan.width), remainder)


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
    length, backend, plan = _resolve(root, plan, backend, unroll, packages)
    if stepped:
        _run_stepped(root, backend, plan, length, reduce_root=False)
    else:
        _run_block_assign(root, length)


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
    if not hasattr(root, "reduction"):
        raise TypeError("execute_reduce requires a reduction root")
    length, backend, plan = _resolve(root, plan, backend, unroll, packages)
    if stepped:
        return _run_stepped(root, backend, plan, length, reduce_root=True)
    return _run_block_reduce(root, plan, length)


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
    length, backend, plan = _resolve(root, plan, backend, unroll, packages)
    trace = []
    _run_stepped(
        root, backend, plan, length, reduce_root=hasattr(root, "reduction"), trace=trace
    )
    return trace

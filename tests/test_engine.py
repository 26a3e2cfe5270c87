import itertools
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from lanevec import engine
from lanevec.engine import (
    DEFAULT_REGISTER_BUDGET,
    SCRATCH_BYTES,
    UNROLL_FACTORS,
    PlanError,
    UnrollPlan,
    block_strip,
    call_trace,
    execute_assign,
    execute_reduce,
    masked_length,
    select_plan,
)
from lanevec.expressions import AssignNode, Leaf, MulNode, ScaleNode, SumNode, as_node
from lanevec.lanes import (
    CONTAINER_ALIGNMENT,
    LaneBackend,
    as_dtype,
    default_backend,
)
from lanevec.ops import axpy, dot, norm2, scal, scaled_copy
from lanevec.ops import sum as vec_sum
from lanevec.oracle import oracle_axpy, oracle_dot
from lanevec.vectors import DenseVector

DTYPES = ("f32", "f64")
UNROLLS = (1, 2, 4, 8)


def make_axpy(alpha, x, y):
    return AssignNode(as_node(y), as_node(y) + ScaleNode(alpha, as_node(x)))


def make_dot(x, y):
    return SumNode(as_node(x) * as_node(y))


def wide_trees(x, y, z, w):
    """Sources that make 1, 2, 2, 3 and 4 strip arrays when assigned:
    x + 0.5*y, a product of two sums, t3, a sum times a product of two
    differences, and spill."""
    a, b = 0.5, -1.5
    t3 = (x + y) * (z - a * w)
    spill = ((x + y) * (z - w) + (x * z - y * w)) * ((y + z) * (w - x) - (a * x + b * w))
    return {"x + 0.5*y": x + a * y, "(x+y)*(z-w)": (x + y) * (z - w), "t3": t3,
            "(x+y)*((z-w)*(x-z))": (x + y) * ((z - w) * (x - z)), "spill": spill}


# reductions over a pair of vectors: a product tree, and a bare leaf
REDUCTIONS = {"dot": make_dot, "sum": lambda x, y: SumNode(as_node(x))}


def assign_strip_of(source, dtype="f32"):
    """Elements in one block-executor strip of `d.assign(source)` on long
    vectors, for a source that makes strip arrays."""
    root = AssignNode(as_node(DenseVector.zeros(1, dtype)), source)
    strip = block_strip(root, 1 << 40)
    assert root.registers > 0 and strip < 1 << 40
    return strip


def axpy_strip(dtype="f32"):
    """The strip of `d.assign(x + 0.75*y)`, which makes one strip array."""
    v = as_node(DenseVector.zeros(1, dtype))
    return assign_strip_of(v + ScaleNode(0.75, v), dtype)


def fresh_pair(n, dtype="f32", seed=0):
    rng = np.random.default_rng([seed, n])
    x = DenseVector.from_values(rng.uniform(-1, 1, n), dtype)
    y = DenseVector.from_values(rng.uniform(-1, 1, n), dtype)
    return x, y


# ---------------------------------------------------------------- plans


def test_masked_length_examples():
    assert masked_length(10, 2, 4) == 8
    assert masked_length(16, 2, 4) == 16
    assert masked_length(0, 8, 4) == 0
    assert masked_length(129, 8, 4) == 128
    assert masked_length(31, 1, 1) == 31


def test_select_plan_picks_largest_fitting_unroll():
    caps = LaneBackend("f32", 4).caps
    assert select_plan(2, 100, caps).unroll == 8
    assert select_plan(3, 100, caps).unroll == 4
    assert select_plan(4, 100, caps).unroll == 4
    assert select_plan(5, 100, caps).unroll == 2
    assert select_plan(16, 100, caps).unroll == 1
    # wider than the budget still runs, at unroll 1
    assert select_plan(17, 100, caps).unroll == 1


def test_select_plan_fallback_backend_degenerates():
    plan = select_plan(4, 77, LaneBackend("f32", 1).caps)
    assert (plan.unroll, plan.width, plan.masked_length) == (1, 1, 77)


def test_select_plan_honors_explicit_overrides():
    caps = LaneBackend("f32", 4).caps
    plan = select_plan(8, 100, caps, unroll=8, packages=4)
    assert (plan.unroll, plan.packages) == (8, 4)
    assert plan.masked_length == 96
    # explicit unroll wins even on the fallback backend
    plan = select_plan(4, 100, LaneBackend("f32", 1).caps, unroll=8)
    assert (plan.unroll, plan.width) == (8, 1)


def test_select_plan_rejects_bad_configs():
    caps = LaneBackend("f32", 4).caps
    with pytest.raises(PlanError):
        select_plan(0, 10, caps)
    with pytest.raises(PlanError):
        select_plan(2, -1, caps)
    with pytest.raises(PlanError):
        select_plan(2, 10, caps, unroll=3)
    with pytest.raises(PlanError):
        select_plan(2, 10, caps, unroll=16)
    with pytest.raises(PlanError):
        select_plan(2, 10, caps, unroll=4, packages=3)
    with pytest.raises(PlanError):
        select_plan(2, 10, caps, unroll=2, packages=4)
    with pytest.raises(PlanError, match="footprint"):
        select_plan(2.5, 10, caps)
    with pytest.raises(TypeError, match="backend"):
        select_plan(2, 10, "x")


def test_unroll_plan_invariants():
    plan = UnrollPlan(4, 4, 2, 32)
    assert plan.block == 16
    with pytest.raises(PlanError):
        UnrollPlan(3, 4, 1, 0)
    with pytest.raises(PlanError):
        UnrollPlan(4, 3, 1, 0)
    with pytest.raises(PlanError):
        UnrollPlan(4, 4, 3, 0)
    with pytest.raises(PlanError):
        UnrollPlan(4, 4, 1, 8)  # not a multiple of the 16-element block
    with pytest.raises(PlanError):
        UnrollPlan(4, 4, 1, -16)
    with pytest.raises(PlanError):
        UnrollPlan(1, True, 1, 0)  # a bool is not a width, though True == 1
    for fields in ((2.0, 4, 1, 8), (2, 4, 1.0, 8), (2, 4, 1, 8.0), (1, 4.0, 1, 0)):
        with pytest.raises(PlanError, match="must be an integer"):
            UnrollPlan(*fields)


def test_prebuilt_plan_is_validated_against_tree_and_backend():
    x, y = fresh_pair(20)
    root = make_axpy(1.5, x, y)
    good = UnrollPlan(2, 4, 1, 16)
    execute_assign(root, good, backend=LaneBackend("f32", 4))
    with pytest.raises(PlanError):
        execute_assign(root, good, backend=LaneBackend("f32", 8))
    with pytest.raises(PlanError):
        execute_assign(root, UnrollPlan(2, 4, 1, 8), backend=LaneBackend("f32", 4))
    with pytest.raises(PlanError):
        execute_assign(root, good, backend=LaneBackend("f32", 4), unroll=2)


def test_a_given_plan_runs_if_and_only_if_select_plan_fits_it():
    x, y = fresh_pair(20)
    root = make_axpy(1.5, x, y)
    ran = 0
    for width in (1, 2, 4, 8):
        backend = LaneBackend("f32", width)
        for unroll, packages, plan_width, masked in itertools.product(
                UNROLL_FACTORS, (1, 2), (1, 2, 4, 8), (0, 8, 16, 20)):
            if unroll % packages or masked % (unroll * plan_width):
                continue
            plan = UnrollPlan(unroll, plan_width, packages, masked)
            fitted = select_plan(root.register_footprint, 20, backend, unroll=unroll,
                                 packages=packages)
            for stepped in (False, True):
                if plan == fitted:
                    execute_assign(root, plan, backend=backend, stepped=stepped)
                    ran += 1
                    continue
                before = y.to_array()
                with pytest.raises(PlanError, match=r"UnrollPlan\(.*select_plan gives UnrollPlan"):
                    execute_assign(root, plan, backend=backend, stepped=stepped)
                assert y.to_array().tobytes() == before.tobytes()
    # each width fits one plan per (unroll, packages) pair, seven, on two executors
    assert ran == 4 * 7 * 2


def test_backend_dtype_must_match_tree():
    x, y = fresh_pair(8, "f64")
    with pytest.raises(PlanError):
        execute_assign(make_axpy(1.0, x, y), backend=LaneBackend("f32", 4))


def test_root_type_guards():
    x, y = fresh_pair(8)
    with pytest.raises(TypeError):
        execute_assign(make_dot(x, y))
    with pytest.raises(TypeError):
        execute_reduce(make_axpy(1.0, x, y))
    # an operand is not a root
    for operand in (x + y, as_node(x)):
        with pytest.raises(TypeError):
            call_trace(operand)


def _unread(*args, **kwargs):
    raise AssertionError("built a plan or backend that the block executor does not read")


@pytest.mark.parametrize("dtype", DTYPES)
def test_default_block_assignments_build_no_plan_or_backend(dtype, monkeypatch):
    n = 70001  # several strips of every tree below, and a tail
    rng = np.random.default_rng(41)
    x, y, z, w, d = (DenseVector.from_values(rng.uniform(-1, 1, n), dtype) for _ in range(5))
    xa, ya, za, wa = (v.to_array() for v in (x, y, z, w))
    a = 0.75
    af = as_dtype(dtype).type(a)
    for name in ("select_plan", "UnrollPlan", "default_backend"):
        monkeypatch.setattr(engine, name, _unread)
    scaled_copy(a, x, d)
    assert d.to_array().tobytes() == (af * xa).tobytes()
    scal(a, d)
    assert d.to_array().tobytes() == (af * (af * xa)).tobytes()
    axpy(a, x, y)
    assert y.to_array().tobytes() == (ya + af * xa).tobytes()
    d.assign((x + y) * (z - a * w))
    want = (xa + (ya + af * xa)) * (za - af * wa)
    assert d.to_array().tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
def test_default_stepped_calls_build_no_plan(dtype, monkeypatch):
    """A stepped call without overrides reads the default plan's U and W
    without building it, and returns the block executor's result; so does
    call_trace, whose events are those of the default plan's."""
    block = select_plan(3, 0, default_backend(dtype)).block  # dot's U*W
    a = 0.75
    for n in (0, 3, block, 300):
        values = np.random.default_rng([n, 47]).uniform(-1, 1, (5, n))
        results = []
        for stepped in (False, True):
            x, y, z, w, d = (DenseVector.from_values(v, dtype) for v in values)
            with monkeypatch.context() as m:
                if stepped:
                    m.setattr(engine, "select_plan", _unread)
                    m.setattr(engine, "UnrollPlan", _unread)
                got = [dot(x, y, stepped=stepped), vec_sum(x, stepped=stepped),
                       norm2(x, stepped=stepped)]
                scal(a, z, stepped=stepped)
                axpy(a, x, y, stepped=stepped)
                scaled_copy(a, y, w, stepped=stepped)
                d.assign((x + y) * (z - a * w), stepped=stepped)
            results.append([r.tobytes() for r in got] + [
                v.to_array().tobytes() for v in (y, z, w, d)])
        assert results[0] == results[1], n
        for root in (make_dot(x, y), make_axpy(a, x, y)):
            plan = select_plan(root.register_footprint, n, default_backend(dtype))
            want = call_trace(root, plan)
            with monkeypatch.context() as m:
                m.setattr(engine, "select_plan", _unread)
                m.setattr(engine, "UnrollPlan", _unread)
                assert call_trace(root) == want, (type(root).__name__, n)


def _quad(x, y, z, w):
    return (x + y) * (z - w)


# reductions whose default plans unroll by 8, 4, 2 and 1
DEFAULT_UNROLL_TREES = {
    8: lambda x, y, z, w: x,
    4: lambda x, y, z, w: x * y,
    2: _quad,
    1: lambda x, y, z, w: (_quad(x, y, z, w) + _quad(y, x, w, z))
    * (_quad(x, z, y, w) - _quad(w, y, z, x)),
}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("unroll", sorted(DEFAULT_UNROLL_TREES))
def test_default_reduction_matches_its_selected_plan(dtype, unroll, monkeypatch):
    rng = np.random.default_rng([unroll, 43])
    for n in (0, 3, 1000, 70001):
        vectors = [DenseVector.from_values(rng.uniform(-1, 1, n), dtype) for _ in range(4)]
        root = SumNode(as_node(DEFAULT_UNROLL_TREES[unroll](*vectors)))
        plan = select_plan(root.register_footprint, n, default_backend(dtype).caps)
        assert plan.unroll == unroll
        want = execute_reduce(root, plan)
        with monkeypatch.context() as m:
            m.setattr(engine, "select_plan", _unread)
            m.setattr(engine, "UnrollPlan", _unread)
            got = execute_reduce(root)
        assert got.tobytes() == want.tobytes(), n


@pytest.mark.parametrize("kind", ["assign", "reduce"])
def test_block_executor_overrides_are_still_checked(kind):
    x, y = fresh_pair(20)
    before = y.to_array()
    run = {"assign": lambda **o: axpy(1.5, x, y, **o), "reduce": lambda **o: dot(x, y, **o)}[kind]
    backend = default_backend("f32")
    plan = select_plan(3, 20, backend.caps)
    for options in (
        {"unroll": 3},
        {"plan": UnrollPlan(1, backend.width, 1, 32)},  # built for another length
        {"backend": LaneBackend("f64")},
        {"plan": plan, "unroll": plan.unroll},
    ):
        with pytest.raises(PlanError):
            run(**options)
    assert y.to_array().tobytes() == before.tobytes()


@pytest.mark.parametrize("stepped", [False, True])
@pytest.mark.parametrize("kind", ["assign", "reduce"])
def test_bad_override_inputs_get_the_right_error(kind, stepped):
    x, y = fresh_pair(20)
    before = y.to_array()
    run = {
        "assign": lambda **o: axpy(1.5, x, y, stepped=stepped, **o),
        "reduce": lambda **o: dot(x, y, stepped=stepped, **o),
    }[kind]
    for options in (
        {"unroll": True},  # a bool is not an unroll factor, though True == 1
        {"packages": True},
        {"unroll": 2.0},
        {"packages": 1.0},
        # without a backend the default one is used, whose width is 16
        {"plan": UnrollPlan(1, 4, 1, 20)},
    ):
        with pytest.raises(PlanError):
            run(**options)
    with pytest.raises(TypeError):
        run(plan=(1, 16, 1, 16))
    with pytest.raises(TypeError, match="backend"):
        run(backend="x")
    assert y.to_array().tobytes() == before.tobytes()


@pytest.mark.parametrize("stepped", ["no", "", 1, 0, None, np.True_, np.False_])
def test_stepped_takes_only_true_or_false(stepped):
    """A value of stepped that is not True or False, truthy or not, raises
    TypeError through every entry point that passes it on, with overrides
    or without, and writes no element."""
    x, y = fresh_pair(20)
    out = DenseVector.zeros(20)
    before = [v.to_array().tobytes() for v in (x, y, out)]
    calls = [
        lambda **o: dot(x, y, **o), lambda **o: vec_sum(x, **o), lambda **o: norm2(x, **o),
        lambda **o: scal(2.0, x, **o), lambda **o: axpy(2.0, x, y, **o),
        lambda **o: scaled_copy(2.0, x, out, **o), lambda **o: out.assign(x + y, **o),
        lambda **o: execute_assign(make_axpy(2.0, x, y), **o),
        lambda **o: execute_reduce(make_dot(x, y), **o),
    ]
    for call in calls:
        for options in ({}, {"unroll": 2}):
            with pytest.raises(TypeError, match="stepped"):
                call(stepped=stepped, **options)
    assert [v.to_array().tobytes() for v in (x, y, out)] == before


# ---------------------------------------------------------------- values


def test_add_of_difference_example():
    a = DenseVector.from_values([1, 1, 1, 1, 1])
    b = DenseVector.from_values([5, 5, 5, 5, 5])
    c = DenseVector.from_values([1, 2, 3, 4, 5])
    d = DenseVector.zeros(5)
    execute_assign(AssignNode(as_node(d), as_node(a) + (as_node(b) - as_node(c))))
    assert d.to_values() == [5, 4, 3, 2, 1]


def test_zero_length_assign_and_reduce():
    x, y = fresh_pair(0)
    execute_assign(make_axpy(2.0, x, y))
    assert y.to_values() == []
    got = execute_reduce(make_dot(x, y))
    assert got == 0
    assert type(got) is np.float32


def test_dot_small_values():
    x = DenseVector.from_values([1, 2, 3])
    assert execute_reduce(make_dot(x, x)) == 14


@pytest.mark.parametrize("unroll", UNROLLS)
def test_masked_main_loop_plus_remainder_covers_everything(unroll):
    # length 10, width 4, unroll 2: main loop covers 0..7, remainder 8, 9
    x, y = fresh_pair(10)
    expected = oracle_axpy(np.float32(1.5), x.to_values(), y.to_values())
    execute_assign(make_axpy(1.5, x, y), backend=LaneBackend("f32", 4), unroll=unroll)
    assert y.to_values() == expected


def _one_huge_element():
    """f32 x of 0.5s with 1e30 at index 50,000, whose square overflows, and
    y of ones, n = 70,000: more than two block strips."""
    xs = np.full(70_000, 0.5, np.float32)
    xs[50_000] = 1e30
    return DenseVector.from_values(xs, "f32"), DenseVector.from_values(np.ones(70_000), "f32")


@pytest.mark.parametrize("stepped, written", [(False, 32_768), (True, 49_984)])
@pytest.mark.parametrize("error", ["over", "invalid"])
def test_an_assignment_that_raises_leaves_a_prefix_written(error, stepped, written):
    """A ufunc that raises under the caller's error state stops the
    assignment mid-way: the destination holds new values in a prefix of
    whole strips on the block executor (32,768 f32 elements) and of whole
    U*W = 64 iterations on the stepped one (every iteration before
    index 50,000's), and old values after it."""
    x, y = _one_huge_element()
    # x*x overflows at index 50,000, and x*x - x*x is inf - inf there;
    # everywhere else the sources are 1.25 and 1.5
    source, state, message, new = {
        "over": (y + x * x, {"over": "raise"}, "overflow", 1.25),
        "invalid": ((y + x) + (x * x - x * x), {"over": "ignore", "invalid": "raise"},
                    "invalid value", 1.5),
    }[error]
    with np.errstate(**state), pytest.raises(FloatingPointError, match=message):
        y.assign(source, stepped=stepped)
    got = y.to_array()
    assert (got[:written] == new).all() and (got[written:] == 1).all()


@pytest.mark.parametrize("stepped", [False, True])
def test_a_reduction_that_raises_leaves_every_vector_as_it_was(stepped):
    x, y = _one_huge_element()
    before = x.to_array(), y.to_array()
    for root in (SumNode(x * x), SumNode(y + x * x)):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            execute_reduce(root, stepped=stepped)
    assert x.to_array().tobytes() == before[0].tobytes()
    assert y.to_array().tobytes() == before[1].tobytes()


def test_overflow_under_the_default_error_state_warns_once_per_strip():
    """Under NumPy's default error state an overflow warns and the call
    goes on: with every f32 element at 1e30, the block executor warns once
    per strip (3 for 70,000 elements), the stepped one once per ufunc call
    or tail element that overflows, far more often, and a block reduction
    once per strip too, returning inf."""
    n = 70_000
    x = DenseVector.from_values(np.full(n, 1e30, np.float32), "f32")
    y = DenseVector.zeros(n, "f32")
    strips = -(-n // block_strip(AssignNode(y, y + x * x), n))
    assert strips == 3
    counts = {}
    for stepped in (False, True):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            y.assign(y + x * x, stepped=stepped)
        assert all(w.category is RuntimeWarning for w in caught)
        assert (y.to_array() == np.inf).all()
        counts[stepped] = len(caught)
    assert counts[False] == strips
    assert counts[True] > counts[False]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert dot(x, x) == np.inf
    assert len(caught) == strips


# ---------------------------------------------------------------- traces


def test_trace_matches_documented_two_way_unrolled_shape():
    x = DenseVector.from_values(range(16))
    d = DenseVector.zeros(16)
    root = AssignNode(as_node(d), ScaleNode(3.0, as_node(x)))
    trace = call_trace(root, backend=LaneBackend("f32", 4), unroll=2, packages=1)
    assert [(e.kind, e.index, e.slot) for e in trace] == [
        ("init", None, None),
        ("load_once", None, 0),
        ("load_once", None, 1),
        ("load", 0, 0),
        ("load", 4, 1),
        ("vector_op", 0, 0),
        ("vector_op", 4, 1),
        ("store", 0, 0),
        ("store", 4, 1),
        ("load", 8, 0),
        ("load", 12, 1),
        ("vector_op", 8, 0),
        ("vector_op", 12, 1),
        ("store", 8, 0),
        ("store", 12, 1),
        ("cleanup", None, None),
    ]
    assert d.to_values() == [3.0 * i for i in range(16)]


def test_trace_unroll_one_degenerates_to_load_op_store():
    x = DenseVector.from_values(range(8))
    d = DenseVector.zeros(8)
    trace = call_trace(
        AssignNode(as_node(d), as_node(x)), backend=LaneBackend("f32", 4), unroll=1
    )
    kinds = [e.kind for e in trace]
    assert kinds == ["init", "load_once"] + ["load", "vector_op", "store"] * 2 + [
        "cleanup"
    ]


def test_trace_zero_length_still_brackets_with_init_and_cleanup():
    x = DenseVector.zeros(0)
    d = DenseVector.zeros(0)
    trace = call_trace(
        AssignNode(as_node(d), as_node(x)), backend=LaneBackend("f32", 4), unroll=4
    )
    kinds = [e.kind for e in trace]
    assert kinds == ["init"] + ["load_once"] * 4 + ["cleanup"]


def _check_burst_structure(trace, unroll, packages):
    span = unroll // packages
    body = [e for e in trace if e.kind in ("load", "vector_op", "store")]
    assert len(body) % (3 * span) == 0
    for start in range(0, len(body), 3 * span):
        package = body[start : start + 3 * span]
        kinds = [e.kind for e in package]
        assert kinds == ["load"] * span + ["vector_op"] * span + ["store"] * span
        loads, stores = package[:span], package[2 * span :]
        assert [e.slot for e in loads] == sorted(e.slot for e in loads)
        # the same slots, in the same order, across all three bursts
        assert [e.slot for e in package[span : 2 * span]] == [e.slot for e in loads]
        assert [(e.index, e.slot) for e in stores] == [(e.index, e.slot) for e in loads]


@pytest.mark.parametrize("unroll", [2, 4, 8])
def test_burst_order_for_every_valid_package_count(unroll):
    packages_choices = [p for p in (1, unroll // 2, unroll) if p >= 1]
    for packages in sorted(set(packages_choices)):
        x, y = fresh_pair(unroll * 4 * 3 + 5)
        trace = call_trace(
            make_axpy(2.0, x, y),
            backend=LaneBackend("f32", 4),
            unroll=unroll,
            packages=packages,
        )
        _check_burst_structure(trace, unroll, packages)
        assert sum(e.kind == "init" for e in trace) == 1
        assert sum(e.kind == "load_once" for e in trace) == unroll
        assert sum(e.kind == "cleanup" for e in trace) == 1
        singles = [e for e in trace if e.kind == "single_op"]
        assert len(singles) == 5
        # remainder strictly after the last store, before cleanup
        last_store = max(i for i, e in enumerate(trace) if e.kind == "store")
        assert all(trace.index(e) > last_store for e in singles)


def test_reduction_trace_ends_with_reduction_event():
    x, y = fresh_pair(20)
    x_before, y_before = x.to_array().tobytes(), y.to_array().tobytes()
    trace = call_trace(make_dot(x, y), backend=LaneBackend("f32", 4), unroll=2)
    assert [e.kind for e in trace[-2:]] == ["cleanup", "reduction"]
    assert sum(e.kind == "reduction" for e in trace) == 1
    # the template's store burst is a no-op for reductions: nothing written
    assert x.to_array().tobytes() == x_before
    assert y.to_array().tobytes() == y_before


def test_single_op_count_equals_tail_length():
    for length in (0, 1, 7, 8, 9, 63, 64, 65, 129):
        for unroll, width in ((1, 1), (2, 4), (8, 4)):
            x = DenseVector.from_values(range(length))
            d = DenseVector.zeros(length)
            backend = LaneBackend("f32", width)
            trace = call_trace(
                AssignNode(as_node(d), ScaleNode(2.0, as_node(x))),
                backend=backend,
                unroll=unroll,
            )
            singles = sum(e.kind == "single_op" for e in trace)
            assert singles == length - masked_length(length, unroll, width)
            assert d.to_values() == [2.0 * i for i in range(length)]


# ------------------------------------------------- executor equivalence


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("unroll", UNROLLS)
def test_stepped_and_block_executors_are_bit_identical(dtype, unroll):
    for n in (0, 1, 3, 16, 37, 129, 515):
        for backend in (LaneBackend(dtype, 1), LaneBackend(dtype)):
            x, y = fresh_pair(n, dtype, seed=n)
            opts = dict(backend=backend, unroll=unroll)

            d_block = DenseVector.zeros(n, dtype)
            d_step = DenseVector.zeros(n, dtype)
            source = as_node(x) + ScaleNode(0.75, as_node(y))
            execute_assign(AssignNode(as_node(d_block), source), **opts)
            execute_assign(AssignNode(as_node(d_step), source), stepped=True, **opts)
            assert d_block.to_array().tobytes() == d_step.to_array().tobytes()

            for make in REDUCTIONS.values():
                r_block = execute_reduce(make(x, y), **opts)
                r_step = execute_reduce(make(x, y), stepped=True, **opts)
                assert r_block.tobytes() == r_step.tobytes()
                assert type(r_block) is type(r_step)

            # A node object used twice in one tree evaluates as its
            # unshared twin does, call for call.
            def pair():
                return as_node(x) + as_node(y)

            e = pair()
            sums = (SumNode(e * e), SumNode(pair() * pair()))
            sources = (e * e - 2.0 * e, pair() * pair() - 2.0 * pair())
            want = execute_reduce(sums[1], **opts)
            for root in sums:
                for stepped in (False, True):
                    got = execute_reduce(root, stepped=stepped, **opts)
                    assert got.tobytes() == want.tobytes()
            assert call_trace(sums[0], **opts) == call_trace(sums[1], **opts)
            d_want = DenseVector.zeros(n, dtype)
            d_want.assign(sources[1], **opts)
            traces = []
            for source in sources:
                for stepped in (False, True):
                    d = DenseVector.zeros(n, dtype)
                    d.assign(source, stepped=stepped, **opts)
                    assert d.to_array().tobytes() == d_want.to_array().tobytes()
                traces.append(call_trace(AssignNode(as_node(d), source), **opts))
            assert traces[0] == traces[1]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("unroll", UNROLLS)
@pytest.mark.parametrize("width", [1, None], ids=["scalar_backend", "wide_backend"])
def test_executors_agree_across_strip_boundaries(dtype, unroll, width):
    backend = LaneBackend(dtype, width)
    block = unroll * backend.width
    v = DenseVector.zeros(1, dtype)
    strips = {axpy_strip(dtype), block_strip(make_dot(v, v), 1 << 40)}

    # Around an assignment strip and a reduction strip, and past two of
    # them plus a tail (a third strip at U*W = 1). The block executor
    # ignores packages and the stepped executor has no strips, so both run
    # one package at these lengths, and one package per slot only at one
    # short length.
    cases = [(n, [1]) for s in strips for n in (s - 1, s, s + 1, 2 * s + block + 3)]
    cases.append((4 * block + 3, sorted({1, unroll})))
    for n, packages_choices in cases:
        x, y = fresh_pair(n, dtype, seed=n)
        source = as_node(x) + ScaleNode(0.75, as_node(y))
        opts = dict(backend=backend, unroll=unroll)
        d_block = DenseVector.zeros(n, dtype)
        execute_assign(AssignNode(as_node(d_block), source), **opts)
        r_block = {name: execute_reduce(make(x, y), **opts)
                   for name, make in REDUCTIONS.items()}
        for packages in packages_choices:
            d_step = DenseVector.zeros(n, dtype)
            execute_assign(
                AssignNode(as_node(d_step), source), stepped=True, packages=packages, **opts
            )
            got, want = d_block.to_array().tobytes(), d_step.to_array().tobytes()
            assert got == want, (n, packages)

            for name, make in REDUCTIONS.items():
                r_step = execute_reduce(make(x, y), stepped=True, packages=packages, **opts)
                assert r_block[name].tobytes() == r_step.tobytes(), (name, n, packages)
                assert type(r_block[name]) is type(r_step) is backend.dtype.type


@pytest.mark.parametrize("dtype", DTYPES)
def test_block_reduction_walks_its_tree_once_per_strip(dtype, monkeypatch):
    """A reduction's tail is the end of its last strip: a dot that fits one
    strip calls its product node once, tail included, a longer one once per
    strip, and a zero-length one never. A sum over a bare leaf, which takes
    no register, is one strip at any length."""
    v = DenseVector.zeros(1, dtype)
    s = block_strip(make_dot(v, v), 1 << 40)
    calls = []

    def spy_on(cls):
        block_op = cls.block_op

        def spy(self, lo, hi, out):
            calls.append((lo, hi))
            return block_op(self, lo, hi, out)

        return spy

    cases = [
        (dot, MulNode, 100, [(0, 100)]),
        (dot, MulNode, 0, []),
        (dot, MulNode, s + 5, [(0, s), (s, s + 5)]),
        (lambda x, y, **o: vec_sum(x, **o), Leaf, 2 * s + 5, [(0, 2 * s + 5)]),
    ]
    for reduce, node, n, walks in cases:
        x, y = fresh_pair(n, dtype, seed=n)
        want = reduce(x, y, stepped=True)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(node, "block_op", spy_on(node))
            got = reduce(x, y)
        assert calls == walks, n
        assert got.tobytes() == want.tobytes(), n


@pytest.mark.parametrize("dtype", DTYPES)
def test_every_scratch_register_holds_scratch_bytes(dtype):
    """A root's strip is one array of SCRATCH_BYTES, whatever its register
    count or U*W; a reduction counts the array its terms end in as a
    register, unless they are a leaf's own view."""
    itemsize = as_dtype(dtype).itemsize
    strip = SCRATCH_BYTES // itemsize
    # whole iterations of the widest plan, so no strip ends in a part row
    assert strip % (max(UNROLL_FACTORS) * CONTAINER_ALIGNMENT // itemsize) == 0
    v = DenseVector.zeros(1, dtype)
    trees = wide_trees(v, v, v, v)
    registers = [AssignNode(v, tree).registers for tree in trees.values()]
    assert registers == [1, 2, 2, 3, 4]
    for name, tree in trees.items():
        assert block_strip(AssignNode(v, tree), 1 << 40) == strip, name
    sums = {"sum": SumNode(v), "dot": make_dot(v, v), "t3": SumNode(trees["t3"]),
            "wide3": SumNode(trees["(x+y)*((z-w)*(x-z))"]), "spill": SumNode(trees["spill"])}
    assert [root.registers for root in sums.values()] == [0, 1, 2, 3, 4]
    assert block_strip(sums.pop("sum"), 1 << 40) == 1 << 40
    for name, root in sums.items():
        assert block_strip(root, 1 << 40) == strip, name

    # two strips and a tail, through both executors
    n = 2 * strip + 7
    rng = np.random.default_rng([7, n])
    x, y, z, w = (DenseVector.from_values(rng.uniform(-1, 1, n), dtype) for _ in range(4))
    trees = wide_trees(x, y, z, w)
    for name in ("t3", "(x+y)*((z-w)*(x-z))", "spill"):
        d_block, d_step = DenseVector.zeros(n, dtype), DenseVector.zeros(n, dtype)
        execute_assign(AssignNode(d_block, trees[name]))
        execute_assign(AssignNode(d_step, trees[name]), stepped=True)
        assert d_block.to_array().tobytes() == d_step.to_array().tobytes(), name
        got = execute_reduce(SumNode(trees[name]))
        want = execute_reduce(SumNode(trees[name]), stepped=True)
        assert got.tobytes() == want.tobytes(), name


def assert_positive_zero(root, opts, where):
    r_block = execute_reduce(root, **opts)
    r_step = execute_reduce(root, stepped=True, **opts)
    assert r_block.tobytes() == r_step.tobytes(), where
    assert r_block == 0 and not np.signbit(r_block), where


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("width", [1, None], ids=["scalar_backend", "wide_backend"])
def test_negative_zero_terms_sum_to_positive_zero(dtype, width, monkeypatch):
    """A sum or dot whose terms are all -0.0 is +0.0, and the block
    executor returns the stepped one's bits, with a tail or without, and
    so does a dot or sum(t3) whose lanes are carried across strips. A
    stepped lane starts at +0 and a block lane at its first term, so the
    lanes themselves may differ in the sign of zero; the remainder starts
    at +0 and is added last, which makes both results +0."""
    backend = LaneBackend(dtype, width)
    for unroll in UNROLLS:
        block = unroll * backend.width
        for n in sorted({block - 1, block, 2 * block - 1, 3 * block, 4 * block - 1} - {0}):
            x = DenseVector.from_values(np.full(n, -0.0), dtype)
            y = DenseVector.from_values(np.ones(n), dtype)
            opts = dict(backend=backend, unroll=unroll)
            for name, make in REDUCTIONS.items():
                assert_positive_zero(make(x, y), opts, (name, n, unroll))

    monkeypatch.setattr(engine, "SCRATCH_BYTES", CARRY_SCRATCH_BYTES)
    for name, make, opts, n, _ in carry_runs(dtype, backend):
        assert_positive_zero(make(*tail_vectors(n, dtype, "-0.0")), opts, (name, n, opts))


# (x, y) values put in the tail: one NaN or infinity in its middle, or -0.0
# in every x and +0.0 in every y, so that each tail term of dot, sum and
# x + 0.75*y is -0.0 (the assign's -0.0 + +0.0 is +0.0)
TAIL_CASES = {
    "nan": (np.nan, None),
    "+inf": (np.inf, None),
    "-inf": (-np.inf, None),
    "-0.0": (-0.0, 0.0),
}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("width", [1, None], ids=["scalar_backend", "wide_backend"])
def test_array_tail_matches_single_op_tail(dtype, width, monkeypatch):
    """The block executor evaluates the tail in one array call; the stepped
    executor runs single_op per element. They agree bit for bit, and so
    they do with a NaN or an infinity in the row the lanes so far are
    carried into."""
    backend = LaneBackend(dtype, width)
    strip = axpy_strip(dtype)
    for unroll in UNROLLS:
        block = unroll * backend.width
        for n in [*range(1, block), strip + 5]:
            lo = masked_length(n, unroll, backend.width)
            if lo == n:
                continue  # U·W = 1 leaves no tail
            for case, (xv, yv) in TAIL_CASES.items():
                x, y = fresh_pair(n, dtype, seed=n)
                if yv is None:
                    x[(lo + n) // 2] = xv
                else:
                    for i in range(lo, n):
                        x[i], y[i] = xv, yv
                opts = dict(backend=backend, unroll=unroll)
                where = (n, unroll, case)
                for make in (lambda: make_dot(x, y), lambda: SumNode(as_node(x))):
                    r_block = execute_reduce(make(), **opts)
                    r_step = execute_reduce(make(), stepped=True, **opts)
                    assert r_block.tobytes() == r_step.tobytes(), where
                source = as_node(x) + ScaleNode(0.75, as_node(y))
                d_block = DenseVector.zeros(n, dtype)
                d_step = DenseVector.zeros(n, dtype)
                execute_assign(AssignNode(as_node(d_block), source), **opts)
                execute_assign(AssignNode(as_node(d_step), source), stepped=True, **opts)
                got, want = d_block.to_array().tobytes(), d_step.to_array().tobytes()
                assert got == want, where

    monkeypatch.setattr(engine, "SCRATCH_BYTES", CARRY_SCRATCH_BYTES)
    for name, make, opts, n, carried in carry_runs(dtype, backend):
        for case in ("nan", "+inf", "-inf"):
            vectors = tail_vectors(n, dtype, "uniform")
            vectors[0][carried] = TAIL_CASES[case][0]
            r_block = execute_reduce(make(*vectors), **opts)
            r_step = execute_reduce(make(*vectors), stepped=True, **opts)
            assert r_block.tobytes() == r_step.tobytes(), (name, n, opts, case)


# Reductions the tail rule must hold for: a product, a bare leaf and a
# fused tree of three registers.
TAIL_ROOTS = {
    "dot": lambda x, y, z, w: make_dot(x, y),
    "sum": lambda x, y, z, w: SumNode(as_node(x)),
    "sum(t3)": lambda x, y, z, w: SumNode(wide_trees(x, y, z, w)["t3"]),
}


def tail_vectors(n, dtype, case):
    """x, y, z, w over n elements: uniform values; or terms all -0.0 for
    every root in TAIL_ROOTS; or uniform values with a NaN, +inf and -inf
    in x."""
    rng = np.random.default_rng([n, 5])
    columns = rng.uniform(-1, 1, (4, n))
    if case == "-0.0":
        # x*y, x and (x + y)*(z - 0.5*w) are all -0.0
        columns = np.array([[-0.0], [1.0], [-0.0], [0.0]]).repeat(n, axis=1)
    elif case == "nan/inf" and n:
        for i, v in zip((n // 4, n // 2, 3 * n // 4), (np.nan, np.inf, -np.inf)):
            columns[0, i] = v
    return [DenseVector.from_values(c, dtype) for c in columns]


def row_of(make, dtype, opts):
    """U*W of the plan a reduction built by `make` runs with `opts`."""
    root = make(*tail_vectors(0, dtype, "uniform"))
    backend = opts.get("backend", default_backend(dtype))
    return select_plan(root.register_footprint, 0, backend, unroll=opts.get("unroll")).block


# The carry across strips does not depend on their length, so the carry
# tests patch SCRATCH_BYTES to make strips of 256 f32 or 128 f64 elements,
# two rows of the widest plan: at the real strips, each width-1 stepped
# run of sum(t3) takes about 0.5 s.
CARRY_SCRATCH_BYTES = 1024


def carry_runs(dtype, backend):
    """(name, make, opts, n, carried) for dot and sum(t3) at n = 2*strip +
    {0, 1, U*W - 1, U*W + 3}, so that the lanes so far are carried into
    the first row of a second strip, and of a third that may be short or
    hold only tail terms. Each runs on the default plan if `backend` is
    wide, or at unroll 1 and 8 on the scalar one; `carried` is an index
    in the middle of the second strip's first row."""
    configs = [{}] if backend.specialized else [dict(backend=backend, unroll=u) for u in (1, 8)]
    for name in ("dot", "sum(t3)"):
        make = TAIL_ROOTS[name]
        strip = block_strip(make(*tail_vectors(0, dtype, "uniform")), 1 << 40)
        for opts in configs:
            block = row_of(make, dtype, opts)
            for n in sorted({2 * strip + k for k in (0, 1, block - 1, block + 3)}):
                yield name, make, opts, n, strip + block // 2


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf + -inf
@pytest.mark.parametrize("dtype", DTYPES)
def test_block_and_stepped_agree_at_every_short_length(dtype):
    """The block executor adds the tail's terms in order, then to +0, and
    a reduction shorter than U*W returns that alone. That equals the
    stepped remainder, which starts at +0, bit for bit at every length
    up to two rows and two terms past them, -0, NaN and inf included."""
    configs = [{}] + [dict(backend=LaneBackend(dtype, 1), unroll=u) for u in (1, 2, 8)]
    for name, make in TAIL_ROOTS.items():
        for opts in configs:
            block = row_of(make, dtype, opts)
            for n in range(2 * block + 2):
                for case in ("uniform", "-0.0", "nan/inf"):
                    vectors = tail_vectors(n, dtype, case)
                    got = execute_reduce(make(*vectors), **opts)
                    want = execute_reduce(make(*vectors), stepped=True, **opts)
                    where = (name, block, n, case)
                    assert got.tobytes() == want.tobytes(), where
                    assert type(got) is type(want) is as_dtype(dtype).type, where
                    if case == "-0.0":
                        assert got == 0 and not np.signbit(got), where


def _never_called(*args, **kwargs):
    raise AssertionError("a reduction of at most one row or one lane folded its lanes")


@pytest.mark.parametrize("dtype", DTYPES)
def test_reduction_shorter_than_a_row_folds_nothing(dtype, monkeypatch):
    """At 0 < n < U*W there is no row, so the block executor returns the
    tail's remainder without a fold or combine_partials; at n = U*W the
    one row is added in one accumulate, without either, and at n = 2*U*W
    it calls both. A plan with U*W = 1 folds in one lane below 512 terms
    and adds them in that same one accumulate: at n = 2 and 511 neither
    runs, and at 512 both do. Every one-pass sum has the stepped bits, and
    a sum of -0 terms is +0."""
    calls = []

    def spy(f):
        def counted(*args):
            calls.append(f.__name__)
            return f(*args)

        return counted

    configs = [{}] + [dict(backend=LaneBackend(dtype, 1), unroll=u) for u in (8, 1)]
    for name, make in TAIL_ROOTS.items():
        for opts in configs:
            block = row_of(make, dtype, opts)
            one_pass, folds = ((1, block - 1, block), 2 * block) if block > 1 else ((2, 511), 512)
            for n in one_pass:
                for case in ("uniform", "-0.0"):
                    vectors = tail_vectors(n, dtype, case)
                    want = execute_reduce(make(*vectors), stepped=True, **opts)
                    with monkeypatch.context() as m:
                        m.setattr(engine, "_fold", _never_called)
                        m.setattr(engine, "combine_partials", _never_called)
                        got = execute_reduce(make(*vectors), **opts)
                    assert got.tobytes() == want.tobytes(), (name, block, n, case)
                    if case == "-0.0":
                        assert got == 0 and not np.signbit(got), (name, block, n)

            vectors = tail_vectors(folds, dtype, "uniform")
            want = execute_reduce(make(*vectors), stepped=True, **opts)
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(engine, "_fold", spy(engine._fold))
                m.setattr(engine, "combine_partials", spy(engine.combine_partials))
                got = execute_reduce(make(*vectors), **opts)
            assert calls == ["_fold", "combine_partials"], (name, block)
            assert got.tobytes() == want.tobytes(), (name, block)


# ------------------------------------------------------- fold lanes


def test_fold_lanes_rule():
    """L is the largest power of two with U*W <= L <= 256 and 256*L <= n,
    and U*W if there is none; the plan shows it."""
    for unroll, width in ((1, 1), (8, 1), (1, 16), (4, 16), (8, 16), (4, 8), (8, 8)):
        block = unroll * width
        for length in (0, 1, 4097, 32768, 65543, 1 << 20, 1 << 22):
            n = masked_length(length, unroll, width)
            powers = [1 << k for k in range(9)]
            want = max([p for p in powers if block <= p and 256 * p <= n], default=block)
            got = UnrollPlan(unroll, width, 1, n).fold_lanes
            assert got == want, (unroll, width, length)
    # the default plans of dot, sum and sum(t3), whose U*W is 16 or more,
    # keep U*W lanes up to 4097 elements
    v = DenseVector.zeros(1)
    for make in (*REDUCTIONS.values(), lambda x, y: SumNode(wide_trees(x, y, x, y)["t3"])):
        root = make(v, v)
        for dtype in DTYPES:
            plan = select_plan(root.register_footprint, 4097, default_backend(dtype))
            assert plan.fold_lanes == plan.block
    assert UnrollPlan(1, 1, 1, 511).fold_lanes == 1
    assert UnrollPlan(1, 1, 1, 512).fold_lanes == 2
    assert UnrollPlan(4, 16, 1, 1 << 20).fold_lanes == 256


def test_fold_lanes_are_capped_at_the_shortest_strip(monkeypatch):
    """Lanes never outgrow a strip, SCRATCH_BYTES of the widest type, so
    every strip is whole rows of lanes."""
    monkeypatch.setattr(engine, "SCRATCH_BYTES", 256)  # 64 f32, 32 f64
    assert UnrollPlan(1, 16, 1, 1 << 20).fold_lanes == 32
    assert UnrollPlan(8, 8, 1, 1 << 20).fold_lanes == 64  # no wider than U*W
    n = 256 * 32 + 16 + 5
    for dtype in DTYPES:
        x, y = fresh_pair(n, dtype, seed=3)
        opts = dict(backend=LaneBackend(dtype), unroll=1)
        r_block = execute_reduce(make_dot(x, y), **opts)
        r_step = execute_reduce(make_dot(x, y), stepped=True, **opts)
        assert r_block.tobytes() == r_step.tobytes(), dtype


# The fold-lane tests patch SCRATCH_BYTES to make strips of 512 f32 or
# 256 f64 elements, so that the lanes carried across strips are up to 256
# wide and a stepped run stays short.
FOLD_SCRATCH_BYTES = 2048


def wide_fold_runs(dtype, backend):
    """(name, make, opts, n, lanes, bounds) for dot, sum and sum(t3), each
    folding in L = 2 and 4 times U*W lanes (up to 256): n is 256*L, then a
    part row of L - U*W masked terms, then a tail of up to 3. Each runs on
    the default plan if `backend` is wide, or at unroll 1 and 8 on the
    scalar one. `bounds` are indices where a row of L lanes, a strip or the
    part row starts, and the terms just before them."""
    configs = [{}] if backend.specialized else [dict(backend=backend, unroll=u) for u in (1, 8)]
    for name, make in TAIL_ROOTS.items():
        root = make(*tail_vectors(0, dtype, "uniform"))
        strip = block_strip(root, 1 << 40)
        for opts in configs:
            block = row_of(make, dtype, opts)
            for lanes in (2 * block, 4 * block):
                if lanes > 256:
                    continue
                n = 256 * lanes + lanes - block + min(3, block - 1)
                plan = select_plan(root.register_footprint, n,
                                   opts.get("backend", default_backend(dtype)),
                                   unroll=opts.get("unroll"))
                assert plan.fold_lanes == lanes, (name, opts, n)
                starts = {lanes, 2 * lanes, strip, 2 * strip, 256 * lanes}
                bounds = sorted(i for i in starts | {i - 1 for i in starts} if i < n)
                yield name, make, opts, n, lanes, bounds


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf + -inf
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("width", [1, None], ids=["scalar_backend", "wide_backend"])
def test_block_and_stepped_agree_on_wide_folds(dtype, width, monkeypatch):
    """With L > U*W fold lanes, the stepped slot groups are the block
    executor's lanes: both agree bit for bit with a part row and across
    strip carries, and with NaN, +inf, -inf or -0 terms at the boundaries
    of rows, strips and the part row."""
    monkeypatch.setattr(engine, "SCRATCH_BYTES", FOLD_SCRATCH_BYTES)
    backend = LaneBackend(dtype, width)
    for name, make, opts, n, lanes, bounds in wide_fold_runs(dtype, backend):
        for case in ("uniform", "nan", "+inf", "-inf", "-0.0"):
            vectors = tail_vectors(n, dtype, "-0.0" if case == "-0.0" else "uniform")
            if case in TAIL_CASES and case != "-0.0":
                for i in bounds:
                    vectors[0][i] = TAIL_CASES[case][0]
            where = (name, opts, n, lanes, case)
            r_block = execute_reduce(make(*vectors), **opts)
            r_step = execute_reduce(make(*vectors), stepped=True, **opts)
            assert r_block.tobytes() == r_step.tobytes(), where
            if case == "-0.0":
                assert r_block == 0 and not np.signbit(r_block), where


def test_stepped_reduction_runs_a_group_of_slots_per_fold_row():
    """With c = L/(U*W) groups of U slots, load_once runs c*U times and
    iteration t loads into group t mod c; its events name the unroll
    slot, 0..U-1."""
    backend = LaneBackend("f32", 4)
    n = 256 * 16 + 8 + 1  # L = 16 lanes, 2 groups of 2 slots of 4
    x, y = fresh_pair(n, seed=5)
    trace = call_trace(make_dot(x, y), backend=backend, unroll=2)
    assert select_plan(3, n, backend, unroll=2).fold_lanes == 16
    assert [e.slot for e in trace if e.kind == "load_once"] == [0, 1, 0, 1]
    loads = [(e.index, e.slot) for e in trace if e.kind == "load"]
    assert loads[:4] == [(0, 0), (4, 1), (8, 0), (12, 1)]
    assert len(loads) == (n - 1) // 4
    # an assignment keeps one group at any length
    d = DenseVector.zeros(n)
    trace = call_trace(make_axpy(0.5, x, d), backend=backend, unroll=2)
    assert [e.slot for e in trace if e.kind == "load_once"] == [0, 1]


@pytest.mark.parametrize("stepped", [False, True])
def test_one_tree_evaluated_from_four_threads(stepped):
    n = 2 * axpy_strip("f32") + 7
    x, y = fresh_pair(n, "f32", seed=3)
    reduction = make_dot(x, y)
    source = as_node(x) + ScaleNode(0.75, as_node(y))

    want_sum = execute_reduce(reduction, stepped=stepped).tobytes()
    single = DenseVector.zeros(n)
    execute_assign(AssignNode(as_node(single), source), stepped=stepped)
    want_assign = single.to_array().tobytes()

    outs = [DenseVector.zeros(n) for _ in range(4)]
    sums = [[] for _ in range(4)]
    start = threading.Barrier(4)
    # a block call takes ~0.1 ms, so it needs many repeats to interleave
    repeats = 3 if stepped else 200

    def work(k):
        start.wait(timeout=60)
        for _ in range(repeats):
            sums[k].append(execute_reduce(reduction, stepped=stepped).tobytes())
            execute_assign(AssignNode(as_node(outs[k]), source), stepped=stepped)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    for k in range(4):
        assert sums[k] == [want_sum] * repeats, k
        assert outs[k].to_array().tobytes() == want_assign, k


@pytest.mark.parametrize("dtype", DTYPES)
def test_block_executor_makes_no_full_length_temporary(dtype):
    strip = SCRATCH_BYTES // as_dtype(dtype).itemsize
    # Many whole strips; then two and a short last one, whose ufuncs make
    # short arrays: a strip's arrays kept alive while the next strip makes
    # its own break the register bound.
    for n in (1 << 20, 2 * strip + 7):
        rng = np.random.default_rng(11)
        x, y, z, w = (
            DenseVector.from_values(rng.uniform(-1, 1, n), dtype) for _ in range(4)
        )
        out = DenseVector.zeros(n, dtype)
        trees = wide_trees(x, y, z, w)
        t3, spill = trees["t3"], trees["spill"]
        # 17 registers: over the budget of 16, so the plan falls back to U1
        footprint = AssignNode(as_node(out), spill).register_footprint
        assert footprint == DEFAULT_REGISTER_BUDGET + 1
        # each call, and the root it evaluates
        calls = {
            "dot": (lambda: dot(x, y), make_dot(x, y)),
            "sum": (lambda: vec_sum(x), SumNode(as_node(x))),
            "t3 sum": (lambda: execute_reduce(SumNode(t3)), SumNode(t3)),
            "axpy": (lambda: axpy(0.25, x, y), make_axpy(0.25, x, y)),
            "scal": (lambda: scal(1.0, out), AssignNode(out, ScaleNode(1.0, out))),
            "scaled_copy": (
                lambda: scaled_copy(0.25, x, out),
                AssignNode(out, ScaleNode(0.25, x)),
            ),
            "t3 tree": (lambda: out.assign(t3), AssignNode(out, t3)),
            "spill tree": (lambda: out.assign(spill), AssignNode(out, spill)),
        }
        # At U*W = 1 the fold accumulates its one lane a strip at a time,
        # through strip-length temporaries that no register counts: no root.
        scalar = LaneBackend(dtype, 1)
        calls["scalar sum"] = (lambda: vec_sum(x, backend=scalar), None)
        calls["scalar dot"] = (lambda: dot(x, y, backend=scalar), None)
        operand = n * x.dtype.itemsize
        # a strip is under a quarter of the operand only past four strips
        many = n > 4 * strip
        for name, (call, root) in calls.items():
            if root is None and not many:
                continue
            call()  # keep first-call costs out of the measurement
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            where = f"{name}: n {n}, peak {peak} B, operand {operand} B"
            if many:
                assert peak < operand // 4, where
            if root is not None:
                # one strip-length array per register, a reduction's terms
                # array included, and a few KiB of Python objects
                assert peak <= root.registers * SCRATCH_BYTES + 4096, where
            if name in ("scal", "scaled_copy"):
                # no strip array: the multiply writes the destination,
                # so only a few Python objects are allocated
                assert peak <= 4096, where


def test_packages_do_not_change_results():
    x, y = fresh_pair(515)
    base = execute_reduce(make_dot(x, y), backend=LaneBackend("f32", 4), unroll=8)
    for packages in (1, 2, 4, 8):
        got = execute_reduce(
            make_dot(x, y), backend=LaneBackend("f32", 4), unroll=8, packages=packages
        )
        assert got.tobytes() == base.tobytes()


def test_exact_aliasing_source_equals_destination():
    for stepped in (False, True):
        x = DenseVector.from_values(range(100))
        expected = [2.0 * i for i in range(100)]
        execute_assign(
            AssignNode(as_node(x), ScaleNode(2.0, as_node(x))), stepped=stepped
        )
        assert x.to_values() == expected

    # one whole strip, then a partial strip that ends in the scalar tail
    for dtype in map(as_dtype, DTYPES):
        n = axpy_strip(dtype) + 5
        values = np.random.default_rng([7, n]).uniform(-2, 2, n).astype(dtype)
        a = dtype.type(-1.25)
        cases = {
            "axpy": (lambda x, **o: axpy(a, x, x, **o), values + a * values),
            "scal": (lambda x, **o: scal(a, x, **o), a * values),
            "x*x": (lambda x, **o: x.assign(x * x, **o), values * values),
        }
        for stepped in (False, True):
            for name, (call, want) in cases.items():
                x = DenseVector.from_values(values, dtype)
                call(x, stepped=stepped)
                assert x.to_array().tobytes() == want.tobytes(), (dtype, name, stepped)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("stepped", [False, True])
def test_destination_read_by_the_roots_second_child(dtype, stepped):
    """The destination is also a leaf of the root's right operand. A
    non-leaf left operand must not be written into the destination strip
    before the right one has read it, in any strip."""
    trees = {
        "(y + z) * x": lambda x, y, z: (y + z) * x,
        "(x + y) * (x - z)": lambda x, y, z: (x + y) * (x - z),
        "y - z * x": lambda x, y, z: y - z * x,
    }
    probe = DenseVector.zeros(1, dtype)
    for name, tree in trees.items():
        n = 2 * assign_strip_of(tree(probe, probe, probe), dtype) + 5
        rng = np.random.default_rng([13, n])
        xv, yv, zv = (rng.uniform(-2, 2, n).astype(as_dtype(dtype)) for _ in range(3))
        x, y, z = (DenseVector.from_values(v, dtype) for v in (xv, yv, zv))
        x.assign(tree(x, y, z), stepped=stepped)
        assert x.to_array().tobytes() == tree(xv, yv, zv).tobytes(), name


@pytest.mark.parametrize("stepped", [False, True])
def test_each_leaf_occurrence_is_read_exactly_once(stepped):
    from lanevec.oracle import CountingVector

    # n kept small enough that integer sums stay exact in f32
    n = 300
    a = CountingVector.from_values(range(n))
    d = CountingVector.zeros(n)
    d.assign(a + a, stepped=stepped)  # the same leaf twice
    assert a.read_count == 2 * n
    assert d.write_count == n and d.read_count == 0
    assert d.to_values() == [2.0 * i for i in range(n)]

    x = CountingVector.from_values(range(n))
    got = execute_reduce(SumNode(as_node(x) * as_node(x)), stepped=stepped)
    assert x.read_count == 2 * n
    assert x.write_count == 0
    assert got == float(sum(i * i for i in range(n)))

    # across block-executor strips: two whole strips and a partial one
    a = np.float32(0.75)
    n = 2 * axpy_strip() + 5
    xv, yv = (np.random.default_rng([5, k]).uniform(-1, 1, n).astype(np.float32) for k in (0, 1))
    x, y = CountingVector.from_values(xv), CountingVector.from_values(yv)
    d = CountingVector.zeros(n)
    d.assign(a * x + y, stepped=stepped)
    assert x.read_count == n and y.read_count == n
    assert d.write_count == n and d.read_count == 0
    assert d.to_array().tobytes() == (a * xv + yv).tobytes()


def test_reduction_matches_oracle_within_tolerance():
    x, y = fresh_pair(1000, "f64", seed=42)
    got = execute_reduce(make_dot(x, y))
    expected = oracle_dot(x.to_values(), y.to_values())
    assert got == pytest.approx(float(expected), rel=1e-12)

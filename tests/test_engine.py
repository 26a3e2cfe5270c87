import sys
import threading
import tracemalloc

import numpy as np
import pytest

from lanevec.engine import (
    DEFAULT_REGISTER_BUDGET,
    STRIP_BYTES,
    STRIP_ITERATIONS,
    PlanError,
    UnrollPlan,
    call_trace,
    execute_assign,
    execute_reduce,
    masked_length,
    select_plan,
)
from lanevec.expressions import AssignNode, ScaleNode, SumNode, as_node
from lanevec.lanes import as_dtype, scalar_backend, wide_backend
from lanevec.ops import axpy, dot, scal
from lanevec.ops import sum as vec_sum
from lanevec.oracle import oracle_axpy, oracle_dot
from lanevec.vectors import DenseVector

DTYPES = ("f32", "f64")
UNROLLS = (1, 2, 4, 8)


def make_axpy(alpha, x, y):
    return AssignNode(as_node(y), as_node(y) + ScaleNode(alpha, as_node(x)))


def make_dot(x, y):
    return SumNode(as_node(x) * as_node(y))


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
    caps = wide_backend("f32", 4).caps
    assert select_plan(2, 100, caps).unroll == 8
    assert select_plan(3, 100, caps).unroll == 4
    assert select_plan(4, 100, caps).unroll == 4
    assert select_plan(5, 100, caps).unroll == 2
    assert select_plan(16, 100, caps).unroll == 1
    # wider than the budget still runs, at unroll 1
    assert select_plan(17, 100, caps).unroll == 1
    assert select_plan(2, 100, caps, register_budget=8).unroll == 4


def test_select_plan_fallback_backend_degenerates():
    plan = select_plan(4, 77, scalar_backend("f32").caps)
    assert (plan.unroll, plan.width, plan.masked_length) == (1, 1, 77)


def test_select_plan_honors_explicit_overrides():
    caps = wide_backend("f32", 4).caps
    plan = select_plan(8, 100, caps, unroll=8, packages=4)
    assert (plan.unroll, plan.packages) == (8, 4)
    assert plan.masked_length == 96
    # explicit unroll wins even on the fallback backend
    plan = select_plan(4, 100, scalar_backend("f32").caps, unroll=8)
    assert (plan.unroll, plan.width) == (8, 1)


def test_select_plan_rejects_bad_configs():
    caps = wide_backend("f32", 4).caps
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


def test_unroll_plan_invariants():
    plan = UnrollPlan(4, 4, 2, 32)
    assert plan.block == 16
    assert plan.slots_per_package == 2
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


def test_prebuilt_plan_is_validated_against_tree_and_backend():
    x, y = fresh_pair(20)
    root = make_axpy(1.5, x, y)
    good = UnrollPlan(2, 4, 1, 16)
    execute_assign(root, good, backend=wide_backend("f32", 4))
    with pytest.raises(PlanError):
        execute_assign(root, good, backend=wide_backend("f32", 8))
    with pytest.raises(PlanError):
        execute_assign(root, UnrollPlan(2, 4, 1, 8), backend=wide_backend("f32", 4))
    with pytest.raises(PlanError):
        execute_assign(root, good, backend=wide_backend("f32", 4), unroll=2)


def test_backend_dtype_must_match_tree():
    x, y = fresh_pair(8, "f64")
    with pytest.raises(PlanError):
        execute_assign(make_axpy(1.0, x, y), backend=wide_backend("f32", 4))


def test_root_type_guards():
    x, y = fresh_pair(8)
    with pytest.raises(TypeError):
        execute_assign(make_dot(x, y))
    with pytest.raises(TypeError):
        execute_reduce(make_axpy(1.0, x, y))


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
    execute_assign(make_axpy(1.5, x, y), backend=wide_backend("f32", 4), unroll=unroll)
    assert y.to_values() == expected


# ---------------------------------------------------------------- traces


def test_trace_matches_documented_two_way_unrolled_shape():
    x = DenseVector.from_values(range(16))
    d = DenseVector.zeros(16)
    root = AssignNode(as_node(d), ScaleNode(3.0, as_node(x)))
    trace = call_trace(root, backend=wide_backend("f32", 4), unroll=2, packages=1)
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
        AssignNode(as_node(d), as_node(x)), backend=wide_backend("f32", 4), unroll=1
    )
    kinds = [e.kind for e in trace]
    assert kinds == ["init", "load_once"] + ["load", "vector_op", "store"] * 2 + [
        "cleanup"
    ]


def test_trace_zero_length_still_brackets_with_init_and_cleanup():
    x = DenseVector.zeros(0)
    d = DenseVector.zeros(0)
    trace = call_trace(
        AssignNode(as_node(d), as_node(x)), backend=wide_backend("f32", 4), unroll=4
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
            backend=wide_backend("f32", 4),
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
    trace = call_trace(make_dot(x, y), backend=wide_backend("f32", 4), unroll=2)
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
            backend = scalar_backend("f32") if width == 1 else wide_backend("f32", width)
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
        for backend in (scalar_backend(dtype), wide_backend(dtype)):
            x, y = fresh_pair(n, dtype, seed=n)
            opts = dict(backend=backend, unroll=unroll)

            d_block = DenseVector.zeros(n, dtype)
            d_step = DenseVector.zeros(n, dtype)
            source = as_node(x) + ScaleNode(0.75, as_node(y))
            execute_assign(AssignNode(as_node(d_block), source), **opts)
            execute_assign(AssignNode(as_node(d_step), source), stepped=True, **opts)
            assert d_block.to_array().tobytes() == d_step.to_array().tobytes()

            r_block = execute_reduce(make_dot(x, y), **opts)
            r_step = execute_reduce(make_dot(x, y), stepped=True, **opts)
            assert r_block.tobytes() == r_step.tobytes()
            assert type(r_block) is type(r_step)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("unroll", UNROLLS)
@pytest.mark.parametrize("backend_of", [scalar_backend, wide_backend])
def test_executors_agree_across_strip_boundaries(dtype, unroll, backend_of):
    backend = backend_of(dtype)
    block = unroll * backend.width
    # around an assignment strip, then around a reduction strip
    lengths = [
        n
        for s in (STRIP_BYTES // backend.dtype.itemsize, STRIP_ITERATIONS * block)
        for n in (s - 1, s, s + 1, 2 * s + block - 1, 3 * s + 5)
    ]
    for n in lengths:
        x, y = fresh_pair(n, dtype, seed=n)
        source = as_node(x) + ScaleNode(0.75, as_node(y))
        for packages in sorted({1, unroll}):
            opts = dict(backend=backend, unroll=unroll, packages=packages)
            d_block = DenseVector.zeros(n, dtype)
            d_step = DenseVector.zeros(n, dtype)
            execute_assign(AssignNode(as_node(d_block), source), **opts)
            execute_assign(AssignNode(as_node(d_step), source), stepped=True, **opts)
            got, want = d_block.to_array().tobytes(), d_step.to_array().tobytes()
            assert got == want, (n, packages)

            r_block = execute_reduce(make_dot(x, y), **opts)
            r_step = execute_reduce(make_dot(x, y), stepped=True, **opts)
            assert r_block.tobytes() == r_step.tobytes(), (n, packages)
            assert type(r_block) is type(r_step) is backend.dtype.type


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
@pytest.mark.parametrize("backend_of", [scalar_backend, wide_backend])
def test_array_tail_matches_single_op_tail(dtype, backend_of):
    """The block executor evaluates the tail in one array call; the stepped
    executor runs single_op per element. They agree bit for bit."""
    backend = backend_of(dtype)
    strip = STRIP_BYTES // backend.dtype.itemsize
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


@pytest.mark.parametrize("stepped", [False, True])
def test_one_tree_evaluated_from_four_threads(stepped):
    n = 2 * (STRIP_BYTES // 4) + 7
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
    n = 1 << 20
    rng = np.random.default_rng(11)
    x, y, z, w = (
        DenseVector.from_values(rng.uniform(-1, 1, n), dtype) for _ in range(4)
    )
    out = DenseVector.zeros(n, dtype)
    a, b = 0.5, -1.5
    spill = ((x + y) * (z - w) + (x * z - y * w)) * (
        (y + z) * (w - x) - (a * x + b * w)
    )
    # 17 registers: over the budget of 16, so the plan falls back to U1
    footprint = AssignNode(as_node(out), spill).register_footprint
    assert footprint == DEFAULT_REGISTER_BUDGET + 1
    calls = {
        "dot": lambda: dot(x, y),
        "sum": lambda: vec_sum(x),
        "axpy": lambda: axpy(0.25, x, y),
        "spill tree": lambda: out.assign(spill),
    }
    limit = 256 * 1024
    operand = n * x.dtype.itemsize
    for name, call in calls.items():
        call()  # keep first-call costs out of the measurement
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= limit, f"{name}: peak {peak} B, operand {operand} B"


def test_packages_do_not_change_results():
    x, y = fresh_pair(515)
    base = execute_reduce(make_dot(x, y), backend=wide_backend("f32", 4), unroll=8)
    for packages in (1, 2, 4, 8):
        got = execute_reduce(
            make_dot(x, y), backend=wide_backend("f32", 4), unroll=8, packages=packages
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
        n = STRIP_BYTES // dtype.itemsize + 5
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


def test_reduction_matches_oracle_within_tolerance():
    x, y = fresh_pair(1000, "f64", seed=42)
    got = execute_reduce(make_dot(x, y))
    expected = oracle_dot(x.to_values(), y.to_values())
    assert got == pytest.approx(float(expected), rel=1e-12)

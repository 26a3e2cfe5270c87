"""End-to-end acceptance checks, one test per guaranteed property.

Each test prints a single pass line on success; pytest's own report gives
the fail line otherwise. Tolerances and sweeps are stated inline.
"""

import math
import time

import numpy as np
import pytest

from lanevec import (
    CountingVector,
    DenseVector,
    axpy,
    call_trace,
    dot,
    norm2,
    scal,
    scaled_copy,
)
from lanevec import sum as vec_sum
from lanevec.bench import (
    _make_data,
    bytes_moved,
    emit_csv,
    flop_count,
    run_sweep,
)
from lanevec.engine import UnrollPlan, masked_length
from lanevec.expressions import AssignNode, ScaleNode, as_node
from lanevec.lanes import LaneBackend, as_dtype
from lanevec.oracle import oracle_axpy, oracle_scal, oracle_scaled_copy

SEED = 20260814
ALPHA = 1.25
UNROLLS = (1, 2, 4, 8)
DTYPES = ("f32", "f64")
ELEMENTWISE = ("scal", "axpy", "scaled_copy")
REDUCTIONS = ("dot", "sum", "norm2")
OP_INDEX = {op: i for i, op in enumerate(ELEMENTWISE + REDUCTIONS)}


def _rng(*key):
    return np.random.default_rng([SEED, *key])


def _random_lengths(count=10, lo=130, hi=100000):
    # log-uniform so short-tail and long main-loop mixes are both hit
    g = _rng(999)
    lengths = set()
    while len(lengths) < count:
        lengths.add(int(np.exp(g.uniform(np.log(lo), np.log(hi)))))
    return sorted(lengths)


LENGTHS = list(range(130)) + _random_lengths()


def unit_roundoff(dtype) -> float:
    return float(np.finfo(as_dtype(dtype)).eps) / 2


def sum_error_bound(dtype, n: int, block: int, magnitude: float) -> float:
    """Blocked-summation bound gamma_k * sum |t_i| on the error of the
    engine's sum of n terms t_i in U*W lane accumulators (Higham, Accuracy
    and Stability of Numerical Algorithms, section 4.2).

    Each term passes through at most k = n/(U*W) + U*W + tail + 2
    roundings: its lane accumulator, the lane and slot fold, the scalar
    tail and the final add, with a few to spare for the reference's own
    rounding to float64.
    """
    u = unit_roundoff(dtype)
    k = n / block + block + n % block + 2
    return k * u / (1 - k * u) * magnitude


def within_bound(op, dtype, n: int, block: int, got, ref) -> bool:
    """got lies within the blocked-summation bound of the exact result."""
    exact, magnitude = ref
    bound = sum_error_bound(dtype, n, block, magnitude)
    if op == "norm2" and exact > 0:
        # r = fl(sqrt(s)) with |s - S| <= B gives
        # |r - sqrt(S)| <= B/sqrt(S) + u*(sqrt(S) + B/sqrt(S))
        root = math.sqrt(exact)
        exact, bound = root, bound / root + unit_roundoff(dtype) * (root + bound / root)
    return abs(float(got) - exact) <= bound


_sources = {}


def source_arrays(op, dtype, n):
    """Deterministic random operands; positive for reductions so the
    relative error bound stays meaningful (no cancellation)."""
    key = (op, dtype, n)
    if key not in _sources:
        dt = as_dtype(dtype)
        lo, hi = (0.25, 1.25) if op in REDUCTIONS else (-1.0, 1.0)
        g = _rng(OP_INDEX[op], n, 0 if dtype == "f32" else 1)
        _sources[key] = (
            g.uniform(lo, hi, n).astype(dt),
            g.uniform(lo, hi, n).astype(dt),
        )
    return _sources[key]


_references = {}


def reference(op, dtype, n):
    """Oracle result: scalar loops for elementwise ops; for reductions, the
    exactly compensated (fsum) sum of the element-typed terms and of their
    magnitudes (norm2's terms are the squares)."""
    key = (op, dtype, n)
    if key not in _references:
        dt = as_dtype(dtype)
        x, y = source_arrays(op, dtype, n)
        a = dt.type(ALPHA)
        if op == "scal":
            ref = np.array(oracle_scal(a, list(x)), dtype=dt).tobytes()
        elif op == "axpy":
            ref = np.array(oracle_axpy(a, list(x), list(y)), dtype=dt).tobytes()
        elif op == "scaled_copy":
            ref = np.array(oracle_scaled_copy(a, list(x)), dtype=dt).tobytes()
        else:
            terms = {"dot": x * y, "sum": x, "norm2": x * x}[op]
            terms = terms.astype(np.float64).tolist()
            ref = (math.fsum(terms), math.fsum(map(abs, terms)))
        _references[key] = ref
    return _references[key]


def run_engine(op, dtype, n, backend, unroll):
    x_arr, y_arr = source_arrays(op, dtype, n)
    opts = dict(backend=backend, unroll=unroll)
    if op == "scal":
        x = DenseVector.from_values(x_arr, dtype)
        scal(ALPHA, x, **opts)
        return x.to_array().tobytes()
    if op == "axpy":
        x = DenseVector.from_values(x_arr, dtype)
        y = DenseVector.from_values(y_arr, dtype)
        axpy(ALPHA, x, y, **opts)
        return y.to_array().tobytes()
    if op == "scaled_copy":
        x = DenseVector.from_values(x_arr, dtype)
        out = DenseVector.zeros(n, dtype)
        scaled_copy(ALPHA, x, out, **opts)
        return out.to_array().tobytes()
    x = DenseVector.from_values(x_arr, dtype)
    if op == "dot":
        return dot(x, DenseVector.from_values(y_arr, dtype), **opts)
    if op == "sum":
        return vec_sum(x, **opts)
    if op == "norm2":
        return norm2(x, **opts)
    raise AssertionError(op)


def test_criterion_1_oracle_equivalence():
    started = time.perf_counter()
    checked = 0
    for dtype in DTYPES:
        backends = (LaneBackend(dtype, 1), LaneBackend(dtype))
        for op in ELEMENTWISE + REDUCTIONS:
            for n in LENGTHS:
                ref = reference(op, dtype, n)
                for backend in backends:
                    for unroll in UNROLLS:
                        got = run_engine(op, dtype, n, backend, unroll)
                        if op in ELEMENTWISE:
                            assert got == ref, (op, dtype, n, backend, unroll)
                        else:
                            block = unroll * backend.width
                            assert within_bound(op, dtype, n, block, got, ref), (
                                op, dtype, n, backend, unroll, got, ref,
                            )
                        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s, budget is 60s"
    print(
        f"[criterion 1] PASS: {checked} evaluations across 6 ops, "
        f"{len(LENGTHS)} lengths, 2 element types, 2 backends, 4 unroll "
        f"factors matched the oracles in {elapsed:.1f}s"
    )


def test_criterion_2_remainder_mask_and_single_op_count():
    pairs = [(1, 1), (2, 1), (4, 1), (1, 4), (8, 1), (2, 4), (4, 4), (8, 4)]
    assert sorted({u * w for u, w in pairs}) == [1, 2, 4, 8, 16, 32]
    checked = 0
    for unroll, width in pairs:
        block = unroll * width
        backend = LaneBackend("f32", width)
        for length in range(130):
            n = masked_length(length, unroll, width)
            assert n <= length
            assert n % block == 0
            assert length - n < block
            x = DenseVector.from_values(range(length))
            d = DenseVector.zeros(length)
            trace = call_trace(
                AssignNode(as_node(d), ScaleNode(2.0, as_node(x))),
                backend=backend,
                unroll=unroll,
            )
            singles = sum(e.kind == "single_op" for e in trace)
            assert singles == length - n, (length, unroll, width)
            checked += 1
    print(
        f"[criterion 2] PASS: mask arithmetic and observed scalar-tail "
        f"counts agree for {checked} (length, unroll*width) combinations"
    )


def test_criterion_3_burst_order_in_unrolled_axpy():
    for unroll in (2, 4, 8):
        width = 4
        n = unroll * width * 3 + 3
        g = _rng(3, unroll)
        x = DenseVector.from_values(g.uniform(-1, 1, n))
        y = DenseVector.from_values(g.uniform(-1, 1, n))
        root = AssignNode(as_node(y), as_node(y) + ScaleNode(ALPHA, as_node(x)))
        trace = call_trace(root, backend=LaneBackend("f32", width), unroll=unroll)

        assert sum(e.kind == "init" for e in trace) == 1
        assert sum(e.kind == "load_once" for e in trace) == unroll
        assert sum(e.kind == "cleanup" for e in trace) == 1

        body = [e for e in trace if e.kind in ("load", "vector_op", "store")]
        span = unroll  # one package spans the whole iteration by default
        assert len(body) % (3 * span) == 0
        for start in range(0, len(body), 3 * span):
            package = body[start : start + 3 * span]
            kinds = [e.kind for e in package]
            assert kinds == ["load"] * span + ["vector_op"] * span + ["store"] * span
            slots = [e.slot for e in package[:span]]
            assert slots == sorted(slots)
            assert [e.slot for e in package[span : 2 * span]] == slots
            assert [e.slot for e in package[2 * span :]] == slots
    print(
        "[criterion 3] PASS: loads precede ops precede stores in slot order "
        "for every package at unroll 2, 4 and 8, with init/load_once/cleanup "
        "counts 1/U/1"
    )


def test_criterion_4_loop_fusion_traffic():
    for stepped in (False, True):
        x = CountingVector.from_values(range(1000))
        out = CountingVector.zeros(1000)
        scaled_copy(ALPHA, x, out, stepped=stepped)
        assert x.read_count == 1000
        assert out.write_count == 1000
        assert out.read_count == 0

        a = CountingVector.from_values(range(1000))
        b = CountingVector.from_values(range(1000))
        c = CountingVector.from_values(range(1000))
        d = CountingVector.zeros(1000)
        d.assign(a + (b - c), stepped=stepped)
        assert a.read_count + b.read_count + c.read_count == 3000
        assert d.write_count == 1000
        assert d.read_count == 0
    print(
        "[criterion 4] PASS: scaled copy moved exactly 1000 reads + 1000 "
        "writes and a three-operand sum moved 3000 reads + 1000 writes, in "
        "both executors"
    )


def test_criterion_5_building_expressions_touches_no_elements():
    a = CountingVector.from_values(range(64))
    b = CountingVector.from_values(range(64))
    c = CountingVector.from_values(range(64))
    expr = ((a + b) - c) * 2.0 + (b - a)  # five levels deep
    assert expr.register_footprint > 0
    for v in (a, b, c):
        assert v.read_count == 0 and v.write_count == 0
    print("[criterion 5] PASS: a depth-5 expression recorded zero element accesses")


def test_criterion_6_unroll_invariance():
    for dtype in DTYPES:
        backend = LaneBackend(dtype)
        for n in (129, 1000, 4097):
            results = {}
            reductions = {}
            for unroll in UNROLLS:
                results[unroll] = run_engine("axpy", dtype, n, backend, unroll)
                reductions[unroll] = float(
                    run_engine("dot", dtype, n, backend, unroll)
                )
            assert len(set(results.values())) == 1, (dtype, n)
            # each result is within its own bound of the exact sum, so two
            # results are within the sum of their bounds of each other
            _, magnitude = reference("dot", dtype, n)
            anchor_bound = sum_error_bound(dtype, n, backend.width, magnitude)
            for unroll in UNROLLS:
                bound = sum_error_bound(dtype, n, unroll * backend.width, magnitude)
                err = abs(reductions[unroll] - reductions[1])
                assert err <= bound + anchor_bound, (dtype, n, unroll, err)
    print(
        "[criterion 6] PASS: elementwise results bit-identical and reductions "
        "within tolerance across unroll 1, 2, 4, 8 at fixed width"
    )


@pytest.mark.parametrize("dtype", DTYPES)
def test_reduction_error_bound_at_large_n(dtype):
    n = 1 << 20
    ref = reference("dot", dtype, n)
    for backend in (LaneBackend(dtype, 1), LaneBackend(dtype)):
        for unroll in UNROLLS:
            got = run_engine("dot", dtype, n, backend, unroll)
            block = unroll * backend.width
            assert within_bound("dot", dtype, n, block, got, ref), (
                backend, unroll, got, ref,
            )
    print(
        f"[reduction bound] PASS: {dtype} dot at n=2^20 within the "
        f"blocked-summation bound for 2 backends x 4 unroll factors"
    )


@pytest.mark.parametrize("dtype", DTYPES)
def test_reduction_error_bound_with_fold_lanes(dtype):
    """At n = 2^20 every plan folds in L = 256 lanes, so each term passes
    through at most k' = n/L + L + tail + 2 roundings. With no tail at
    2^20, that is sum_error_bound with L in place of U*W, for dot, sum and
    norm2: 1.9x tighter than the bound on U*W lanes at U*W = 128, and more
    at every smaller U*W."""
    n = 1 << 20
    for op in REDUCTIONS:
        ref = reference(op, dtype, n)
        for backend in (LaneBackend(dtype, 1), LaneBackend(dtype)):
            for unroll in UNROLLS:
                width = backend.width
                lanes = UnrollPlan(unroll, width, 1, masked_length(n, unroll, width)).fold_lanes
                assert lanes == 256 and n % (unroll * width) == 0
                tighter = sum_error_bound(dtype, n, lanes, 1.0)
                assert tighter < sum_error_bound(dtype, n, unroll * width, 1.0)
                got = run_engine(op, dtype, n, backend, unroll)
                assert within_bound(op, dtype, n, lanes, got, ref), (
                    op, backend, unroll, got, ref,
                )
    print(
        f"[fold-lane bound] PASS: {dtype} dot, sum and norm2 at n=2^20 within "
        f"gamma_k' with k' = n/256 + 256 + 2 for 2 backends x 4 unroll factors"
    )


def test_criterion_7_performance_smoke():
    records = run_sweep(
        ["dot"], ["engine", "naive"], [4096], dtype="f32", reps=25, warmup=5, seed=7
    )
    by_variant = {r.variant: r for r in records}
    vs_naive = by_variant["engine"].gflops / by_variant["naive"].gflops
    # Unroll 1 and 8 run in alternating repetitions on the sweep's data, so
    # a change in host speed reaches both best-of-25 times alike.
    x, y, _ = _make_data("dot", 4096, as_dtype("f32"), 7)
    calls = {u: (lambda u=u: dot(x, y, unroll=u)) for u in (1, 8)}
    for _ in range(5):
        for call in calls.values():
            call()
    best = dict.fromkeys(calls, math.inf)
    for _ in range(25):
        for u, call in calls.items():
            t0 = time.perf_counter()
            call()
            best[u] = min(best[u], time.perf_counter() - t0)
    vs_unroll1 = best[1] / best[8]
    assert vs_naive >= 2.0, f"engine only {vs_naive:.2f}x naive at n=4096"
    assert vs_unroll1 >= 1.1, f"unroll 8 only {vs_unroll1:.2f}x unroll 1 at n=4096"
    print(
        f"[criterion 7] PASS: best-of-25 dot at n=4096 f32: engine is "
        f"{vs_naive:.1f}x naive (need 2.0x) and unroll 8 is {vs_unroll1:.2f}x "
        f"unroll 1 (need 1.1x)"
    )


def test_criterion_8_csv_contract(tmp_path):
    records = run_sweep(
        ["dot", "scal"], ["engine", "naive"], [64, 100, 257], reps=3, warmup=1
    )
    path = tmp_path / "sweep.csv"
    emit_csv(records, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 13  # header + 2 ops x 2 variants x 3 sizes
    assert lines[0] == "op,variant,type,n,reps,best_s,median_s,gflops,gbytes"
    for line in lines[1:]:
        op, variant, typ, n, reps, best_s, median_s, gflops, gbytes = line.split(",")
        n, best_s = int(n), float(best_s)
        assert math.isclose(
            float(gflops), flop_count(op, n) / best_s / 1e9, rel_tol=1e-9
        )
        assert math.isclose(
            float(gbytes), bytes_moved(op, n, typ) / best_s / 1e9, rel_tol=1e-9
        )
        assert float(median_s) >= best_s > 0
    print(
        "[criterion 8] PASS: 2 ops x 2 variants x 3 sizes produced 13 CSV "
        "lines with recomputable gflops/gbytes columns"
    )

"""Traced replays and layer probes: the per-layer metrics.

A traced call is replayed through the public parts an entry point is made
of, each wrapped in an in-memory span. Probes time the layer functions
that spans taken from outside cannot split: the main loop, the scalar
tail, the reduction fold and the lane and vector accessors.
"""

import gc
import json
import statistics
import time
import timeit
import tracemalloc

import numpy as np

import lanevec as lv
from lanevec.expressions import (
    AssignNode,
    Leaf,
    MulNode,
    ScaleNode,
    SumNode,
    combine_partials,
    common_length,
)

import harness

# Each per-layer metric -> the end-to-end metric and workload it should move.
LAYER_MAP = {
    "ops.<op>.p50_us": ("call_p50_us", "every workload, split by op"),
    "ops.<op>.gbytes_per_s": ("reduce_/update_gbytes_per_s", "every workload, split by op"),
    "numpy.<op>.gbytes_per_s": ("roofline_frac", "every workload; moves with no lanevec change"),
    "expressions.build_us": ("call_p50_us, calls_per_s", "small-calls"),
    "expressions.common_length_us": ("call_p50_us, calls_per_s", "small-calls"),
    "lanes.default_backend_us": ("call_p50_us, calls_per_s", "small-calls"),
    "engine.select_plan_us": ("call_p50_us, calls_per_s", "small-calls"),
    "engine.fixed_us.<reduce|assign>": ("call_p50_us, calls_per_s", "small-calls"),
    "expressions.combine_partials_us.<dt>": ("call_p50_us (reductions)", "small-calls"),
    "lanes.horizontal_sum_us.<dt>": ("call_p50_us (reductions)", "small-calls"),
    "engine.tail_ns_per_elem.<reduce|assign>": ("call_p50_us", "small-calls"),
    "engine.tail_elem_share": ("call_p50_us", "small-calls"),
    "engine.main_loop_ns_per_elem.<kind>.<dt>": ("reduce_/update_gbytes_per_s", "cache-resident, dram-stream"),
    "vectors.read_block_ns": ("reduce_/update_gbytes_per_s", "cache-resident, dram-stream"),
    "vectors.write_block_ns": ("update_gbytes_per_s", "cache-resident, dram-stream"),
    "engine.stepped_ns_per_elem": ("call_p90_us", "small-calls"),
    "lanes.<splat|load_aligned|store_aligned>_ns": ("call_p90_us", "small-calls"),
    "vectors.<read|write>_element_ns": ("call_p90_us", "small-calls"),
    "engine.alloc_peak_bytes.<reduce|assign>": ("peak_rss_mb", "dram-stream"),
    "vectors.alloc_s": ("setup_s", "dram-stream"),
    "trace.overhead_frac": ("none: traced against untraced calls_per_s", "every workload"),
    "trace.unaccounted_frac": ("none: share of an ops span no child covers", "every workload"),
}

# Largest probe size per workload and dtype: its working-set class. At
# dram-stream the f32 and f64 probe vectors are 128 MiB each.
PROBE_N = {
    "small-calls": {"f32": 4096, "f64": 4096},
    "cache-resident": {"f32": harness.CACHE_N, "f64": harness.CACHE_N},
    "dram-stream": {"f32": 1 << 25, "f64": 1 << 24},
}


_UNIT_SUFFIXES = (
    ("_ns_per_elem", "ns"), ("gbytes_per_s", "GB/s"), ("_us", "us"), ("_ns", "ns"),
    ("alloc_s", "s"), ("_bytes", "bytes"), ("_frac", "ratio"), ("_share", "ratio"),
)


def unit(name):
    """Unit of a per-layer metric, read from the part of its name that
    carries the unit (`engine.fixed_us.reduce` is in us)."""
    for part in name.split("."):
        for suffix, u in _UNIT_SUFFIXES:
            if part.endswith(suffix):
                return u
    raise KeyError(name)


class Spans:
    """In-memory spans: (name, start_ns, end_ns, parent index, call id).
    Call ids number the traced calls; `positions` maps each to its round
    position."""

    def __init__(self):
        self.rows = []
        self.positions = []

    def child(self, name, parent, cid, fn, *args, **kwargs):
        start = time.perf_counter_ns()
        result = fn(*args, **kwargs)
        self.rows.append((name, start, time.perf_counter_ns(), parent, cid))
        return result

    def replay(self, call, pos):
        """Make `call` through its public parts, one span each, under one
        `ops.<op>` span."""
        cid = len(self.positions)
        self.positions.append(pos)
        rows = self.rows
        parent = len(rows)
        rows.append(None)
        start = time.perf_counter_ns()
        try:
            root = self.child("expressions.build", parent, cid, call.build)
            length = self.child("expressions.common_length", parent, cid, common_length, root)
            backend = self.child("lanes.default_backend", parent, cid, lv.default_backend, root.dtype)
            plan = self.child(
                "engine.select_plan", parent, cid,
                lv.select_plan, root.register_footprint, length, backend.caps,
            )
            result = self.child(
                "engine." + call.execute.__name__, parent, cid,
                call.execute, root, plan, backend=backend, stepped=call.stepped,
            )
            if call.kind == "norm2":
                result = np.sqrt(result)
            return result
        finally:
            rows[parent] = ("ops." + call.op, start, time.perf_counter_ns(), None, cid)

    def write(self, path):
        with open(path, "w") as f:
            for name, start, end, parent, cid in self.rows:
                f.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                    "parent": parent, "call": cid}) + "\n")

    def summary(self, calls):
        """Per-layer metrics from the spans, unscaled, with the median rule
        of the end-to-end metrics: for each span name and round position
        the median repeat counts. `calls` maps a round position to its
        Call."""
        repeats = {}  # (name, position) -> span durations
        child_ns = {}
        for name, start, end, parent, cid in self.rows:
            repeats.setdefault((name, self.positions[cid]), []).append(end - start)
            if parent is not None:
                child_ns[parent] = child_ns.get(parent, 0) + end - start
        by_name = {}
        for (name, pos), ns in repeats.items():
            by_name.setdefault(name, {})[pos] = statistics.median(ns)
        out = {}
        for name in ("expressions.build", "expressions.common_length",
                     "lanes.default_backend", "engine.select_plan"):
            out[name + "_us"] = statistics.median(by_name[name].values()) * 1e-3
        op_calls = op_ns = 0
        for op in harness.OPS:
            ns = by_name["ops." + op]
            out[f"ops.{op}.p50_us"] = statistics.median(ns.values()) * 1e-3
            out[f"ops.{op}.gbytes_per_s"] = sum(calls[p].nbytes for p in ns) / sum(ns.values())
            op_calls += len(ns)
            op_ns += sum(ns.values())
        out["trace.calls_per_s"] = op_calls / (op_ns * 1e-9)
        span_ns = unaccounted = 0
        for i, (name, start, end, parent, _) in enumerate(self.rows):
            if parent is None:
                span_ns += end - start
                unaccounted += end - start - child_ns.get(i, 0)
        out["trace.unaccounted_frac"] = unaccounted / span_ns
        return out


def numpy_gbytes_per_s(record):
    """GB/s of the NumPy reference per op, from unscaled median times."""
    ref = record.medians(scaled=False)[1]
    out = {}
    for op in harness.OPS:
        pos = [p for p, call in enumerate(record.calls) if call.op == op]
        out[f"numpy.{op}.gbytes_per_s"] = (
            sum(record.calls[p].nbytes for p in pos) / sum(ref[p] for p in pos)
        )
    return out


# -- probes ---------------------------------------------------------------


def _per_call_s(stmt, env, number, repeat=5):
    """Median over `repeat` batches of the time per call of `stmt`."""
    times = timeit.Timer(stmt, globals=env).repeat(repeat=repeat, number=number)
    return statistics.median(times) / number


def _vectors(dtype, n, count, rng):
    vs = []
    for _ in range(count):
        v = lv.DenseVector.zeros(n, dtype)
        harness.fill_seeded(v, rng)
        vs.append(v)
    return vs


def _dot_tree(x, y):
    return SumNode(MulNode(Leaf(x), Leaf(y)))


def _copy_tree(x, out):
    return AssignNode(Leaf(out), ScaleNode(1.5, Leaf(x)))


def _planned(root):
    """The execute_* function for root, its default plan and backend."""
    backend = lv.default_backend(root.dtype)
    plan = lv.select_plan(root.register_footprint, common_length(root), backend.caps)
    execute = lv.execute_reduce if isinstance(root, SumNode) else lv.execute_assign
    return execute, plan, backend


def _execute_s(root, number, repeat=5, **options):
    """Time per execute_* call on a prebuilt tree and plan."""
    execute, plan, backend = _planned(root)
    env = {"execute": execute, "root": root, "plan": plan, "backend": backend, "options": options}
    return _per_call_s("execute(root, plan, backend=backend, **options)", env, number, repeat)


def _block(dtype, tree_of):
    """U*W of the default plan for a tree over vectors of this dtype."""
    v = lv.DenseVector.zeros(1, dtype)
    root = tree_of(v, v)
    return lv.select_plan(root.register_footprint, 1, lv.default_backend(dtype).caps).block


def probe(workload, seed):
    """Per-layer metrics that the spans cannot split."""
    rng = np.random.default_rng([seed, 99])
    out = {}
    trees = {"reduce": _dot_tree, "assign": _copy_tree}

    # fixed cost: execute_* at n = 0, tree prebuilt, plan selected inside
    e = lv.DenseVector.zeros(0, "f32")
    for kind, tree_of in trees.items():
        root = tree_of(e, e)
        env = {"execute": _planned(root)[0], "root": root}
        out[f"engine.fixed_us.{kind}"] = _per_call_s("execute(root)", env, 2000) * 1e6

    for dt in ("f32", "f64"):
        backend = lv.default_backend(dt)
        w = backend.width
        u = _block(dt, _dot_tree) // w
        rows = [np.asarray(rng.uniform(0.5, 2, w), dtype=backend.dtype) for _ in range(u)]
        env = {"combine_partials": combine_partials, "rows": rows, "rem": backend.scalar(0.25)}
        out[f"expressions.combine_partials_us.{dt}"] = (
            _per_call_s("combine_partials(rows, rem)", env, 2000) * 1e6)
        env = {"horizontal_sum": lv.horizontal_sum, "v": lv.LaneVector(rows[0])}
        out[f"lanes.horizontal_sum_us.{dt}"] = _per_call_s("horizontal_sum(v)", env, 5000) * 1e6

    # scalar tail: n0 against n0 + U*W - 1, same plan, f32
    for kind, tree_of in trees.items():
        block = _block("f32", tree_of)
        n0 = 8 * block
        x, y = _vectors("f32", n0 + block - 1, 2, rng)
        short = [lv.DenseVector(v.read_block(0, n0), v.dtype) for v in (x, y)]
        t_long = _execute_s(tree_of(x, y), 200)
        t_short = _execute_s(tree_of(*short), 200)
        out[f"engine.tail_ns_per_elem.{kind}"] = (t_long - t_short) / (block - 1) * 1e9

    # stepped executor: two tail-free sizes, f32 dot
    block = _block("f32", _dot_tree)
    x, y = _vectors("f32", 16 * block, 2, rng)
    lo = [lv.DenseVector(v.read_block(0, 4 * block), v.dtype) for v in (x, y)]
    t_hi = _execute_s(_dot_tree(x, y), 20, stepped=True)
    t_lo = _execute_s(_dot_tree(*lo), 20, stepped=True)
    out["engine.stepped_ns_per_elem"] = (t_hi - t_lo) / (12 * block) * 1e9

    # lane and vector accessors at block size U*W, f32
    backend = lv.default_backend("f32")
    region = np.zeros(4 * block, backend.dtype)
    lane = backend.splat(1.5)
    blk = np.ones(block, backend.dtype)
    env = {"b": backend, "region": region, "lane": lane, "v": x, "blk": blk,
           "val": backend.scalar(1.5), "block": block}
    for key, stmt in (
        ("lanes.splat_ns", "b.splat(1.5)"),
        ("lanes.load_aligned_ns", "b.load_aligned(region, 16)"),
        ("lanes.store_aligned_ns", "b.store_aligned(region, 16, lane)"),
        ("vectors.read_block_ns", "v.read_block(block, 2 * block)"),
        ("vectors.write_block_ns", "v.write_block(block, 2 * block, blk)"),
        ("vectors.read_element_ns", "v.read_element(7)"),
        ("vectors.write_element_ns", "v.write_element(7, val)"),
    ):
        out[key] = _per_call_s(stmt, env, 20000) * 1e9

    # main loop: two tail-free sizes; the large one is the workload's class
    for dt in ("f32", "f64"):
        for kind, tree_of in trees.items():
            block = _block(dt, tree_of)
            n_hi = PROBE_N[workload][dt] // block * block
            n_lo = 8 * block
            x, y = _vectors(dt, n_hi, 2, rng)
            lo = [lv.DenseVector(v.read_block(0, n_lo), v.dtype) for v in (x, y)]
            number = max(1, 2 ** 18 // n_hi)
            t_hi = _execute_s(tree_of(x, y), number, repeat=3)
            t_lo = _execute_s(tree_of(*lo), 50, repeat=3)
            out[f"engine.main_loop_ns_per_elem.{kind}.{dt}"] = (t_hi - t_lo) / (n_hi - n_lo) * 1e9
            if dt == "f32":
                out[f"engine.alloc_peak_bytes.{kind}"] = _alloc_peak(tree_of(x, y))
            del x, y, lo
            gc.collect()
    return out


def _alloc_peak(root):
    """tracemalloc peak of one execute_* call above what was live before."""
    execute, plan, backend = _planned(root)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        execute(root, plan, backend=backend)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def tail_elem_share(workload):
    calls = [c for c in workload.calls if c.n]
    return sum(c.tail for c in calls) / sum(c.n for c in calls)

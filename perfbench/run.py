"""Run one lanevec benchmark workload and print its metrics.

    python3 perfbench/run.py --workload small-calls --seed 1 --seconds 30 --trace 0

One thread, closed loop: each call starts after the previous one returned.
Set-up also times the imports in two short-lived interpreters, one after
the other. With --trace 0 the last stdout line is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics from a
traced run. Each run also writes its result with host metadata under
.perfbench/ at the repository root (or to --out). See perfbench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# The NumPy reference must be single threaded like the engine: cap every
# BLAS/OpenMP pool before NumPy is imported.
THREAD_CAP = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
os.environ.update(THREAD_CAP)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUPS = 3  # set-ups per run; setup_s takes their median
# Printed and in the result file, but not in BENCHMARK.json: fail_frac is 0
# on a correct tree and the JSON line carries failed/attempted; NumPy's
# memory-bound time and the interpreter-bound engine drift apart with the
# host's speed, so roofline_frac spreads 0.25-0.3 between runs.
UNLISTED = ("fail_frac", "roofline_frac")
UNITS = {
    "setup_s": "s",
    "calls_per_s": "1/s",
    "reduce_gbytes_per_s": "GB/s",
    "update_gbytes_per_s": "GB/s",
    "call_p50_us": "us",
    "call_p90_us": "us",
    "roofline_frac": "ratio",
    "fail_frac": "ratio",
    "peak_rss_mb": "MiB",
}


def host_metadata(workload, seed, n):
    """Host and run facts stored with each result; n is the length of the
    workload's longest vectors."""
    from numpy._core._multiarray_umath import __cpu_features__
    import numpy as np

    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            if entry.startswith("index"):
                fields = {}
                for key in ("level", "type", "size"):
                    with open(os.path.join(base, entry, key)) as f:
                        fields[key] = f.read().strip()
                caches[f"L{fields['level']}{fields['type'][0].lower()}"] = fields["size"]
    except OSError:
        pass
    meta = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_features": sorted(k for k, on in __cpu_features__.items() if on),
        "caches": caches,
        "thread_cap": THREAD_CAP,
        "git_head": None,
        "git_dirty": None,
        "workload": workload,
        "seed": seed,
    }
    if workload == "dram-stream":
        llc = caches.get("L3u")
        meta["dram_vector_bytes"] = n * 4
        meta["llc"] = llc
        if llc and llc.endswith("K"):
            meta["dram_vector_over_llc"] = n * 4 / (int(llc[:-1]) * 1024)
    if os.path.isdir(os.path.join(ROOT, ".git")):
        def git(*args):
            return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        try:
            meta["git_head"] = git("rev-parse", "HEAD") or None
            meta["git_dirty"] = bool(git("status", "--porcelain", "--untracked-files=no"))
        except (OSError, subprocess.SubprocessError):
            pass
    return meta


def import_times(first_s):
    """This process's import time, first_s, and that of SETUPS - 1 fresh
    interpreters making the same imports."""
    code = ("import time; t = time.perf_counter(); import sys; "
            f"sys.path[:0] = [{SRC!r}, {HERE!r}]; "
            "import argparse, gc, json, os, platform, resource, statistics, subprocess; "
            "import numpy, lanevec, harness, layers; print(time.perf_counter() - t)")
    times = [first_s]
    for _ in range(SETUPS - 1):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout))
    return times


def set_up(harness, name, seed):
    """Build the workload SETUPS times and keep the last one; return it with
    the set-up times and the median vector allocation time."""
    import numpy as np

    times, alloc = [], []
    for _ in range(SETUPS):
        workload = None  # free the last set-up first, so memory does not double
        gc.collect()
        t0 = time.perf_counter()
        workload = harness.Workload(name, seed)
        harness.warm_up(np.random.default_rng([seed, 7]))
        times.append(time.perf_counter() - t0)
        alloc.append(workload.alloc_s)
    return workload, times, statistics.median(alloc)


def measure(harness, layers, workload, seconds, trace):
    """Repeat whole rounds within `seconds` of wall time: a round starts
    only if one more as long as the last still ends in time, and at least
    one runs. A traced run alternates an untraced and a traced round."""
    runner = harness.Runner(workload.calls)
    plain = harness.Record()
    traced = harness.Record() if trace else None
    spans = layers.Spans() if trace else None
    t0 = last = time.perf_counter()
    while True:
        runner.round(plain)
        if trace:
            runner.round(traced, spans.replay)
        now = time.perf_counter()
        if 2 * now - last - t0 > seconds:
            break
        last = now
    return plain, traced, spans


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result file (default .perfbench/results/...)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lanevec", "__init__.py")):
        print(f"perfbench: lanevec sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import lanevec

    if os.path.dirname(os.path.dirname(os.path.abspath(lanevec.__file__))) != SRC:
        print(f"perfbench: imported lanevec from {lanevec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy as np

    import harness
    import layers

    if args.workload not in harness.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(harness.WORKLOADS)}")
    import_s = time.perf_counter() - T_START

    import_s = import_times(import_s)
    workload, build_s, alloc_s = set_up(harness, args.workload, args.seed)
    setup_s = statistics.median(import_s) + statistics.median(build_s)
    # Objects made so far live for the whole run: keep the cyclic collector
    # from rescanning them during timed calls.
    gc.collect()
    gc.freeze()
    plain, traced, spans = measure(harness, layers, workload, args.seconds, args.trace)
    whole = harness.Record()
    harness.Runner(workload.whole_vector_calls(np.random.default_rng([args.seed, 11]))).round(whole)

    # Call timings are at the reference host speed, see harness.REFERENCE_NS;
    # the result file keeps them unscaled too. Set-up is mostly allocation,
    # page faults and file reads, which the calibration kernel does not
    # track, so setup_s is wall time.
    e2e = harness.summarize(plain)
    e2e["setup_s"] = setup_s
    unscaled = harness.summarize(plain, scaled=False)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # from KiB
    meta = host_metadata(args.workload, args.seed, workload.vector_n)
    result = {"end_to_end": e2e, "calls_per_round": len(plain.calls),
              "rounds": plain.rounds,
              "host_speed": {"reference_us": harness.REFERENCE_NS * 1e-3,
                             "round_scales": plain.scales,
                             "unscaled_end_to_end": unscaled},
              "setup_parts": {"import_s": import_s, "build_s": build_s},
              "worst_reduction_err_over_bound": max(plain.worst_err_ratio,
                                                    whole.worst_err_ratio)}
    if args.trace:
        per_layer = spans.summary(traced.calls)
        per_layer.update(layers.numpy_gbytes_per_s(plain))
        traced_cps = per_layer.pop("trace.calls_per_s")
        per_layer["trace.overhead_frac"] = 1 - traced_cps / unscaled["calls_per_s"]
        per_layer["engine.tail_elem_share"] = layers.tail_elem_share(workload)
        per_layer["vectors.alloc_s"] = alloc_s
        plain.calls = traced.calls = None
        del workload
        gc.collect()
        per_layer.update(layers.probe(args.workload, args.seed))
        result["per_layer"] = per_layer
        result["layer_map"] = layers.LAYER_MAP
        result["traced_rounds"] = traced.rounds
        metrics = per_layer
        attempted = plain.attempted + traced.attempted + whole.attempted
        failed = plain.failed + traced.failed + whole.failed
        errors = plain.errors + traced.errors + whole.errors
        unit = layers.unit
    else:
        metrics = {k: v for k, v in e2e.items() if k not in UNLISTED}
        attempted = plain.attempted + whole.attempted
        failed = plain.failed + whole.failed
        errors = plain.errors + whole.errors
        unit = UNITS.get

    result.update(meta=meta, attempted=attempted, failed=failed, errors=errors)
    out_dir = os.path.join(ROOT, ".perfbench")
    out = args.out or os.path.join(
        out_dir, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    if args.trace:
        os.makedirs(os.path.join(out_dir, "spans"), exist_ok=True)
        spans.write(os.path.join(out_dir, "spans", f"{args.workload}-seed{args.seed}.jsonl"))

    for name, value in sorted(e2e.items()):
        print(f"{name:<24} {value:>14.6g} {UNITS[name]}")
    print(f"{'samples':<24} {result['calls_per_round']:>14d} calls per round, "
          f"median of {plain.rounds} rounds each (untraced)")
    print(f"{'host_speed':<24} {statistics.median(plain.scales):>14.6g} x: median scale to the "
          f"reference speed, on which the calibration kernel takes "
          f"{harness.REFERENCE_NS * 1e-3:g} us")
    if args.trace:
        for name, value in sorted(metrics.items()):
            print(f"{name:<42} {value:>14.6g} {unit(name)}")
    for line in errors:
        print("failed:", line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

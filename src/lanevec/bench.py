"""Benchmark harness: size sweeps over the level-1 ops with CSV output.

Measures the fused engine against the naive scalar loop and against the
engine pinned to specific unroll factors, across vector sizes spanning the
cache hierarchy. Timing is best-of-R plus median-of-R over freshly seeded
random data; throughput columns are derived from the best time. Strictly
single threaded; pin the process to one core for stable numbers.

Element traffic accounting per element, for scalar size s bytes:

    op           flops  bytes
    dot          2      2s     (read x, read y)
    scal         1      2s     (read x, write x)
    axpy         2      3s     (read x, read y, write y)
    scaled_copy  1      2s     (read x, write out)
"""

import argparse
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import ops as _ops
from .lanes import as_dtype, dtype_name
from .oracle import (
    oracle_axpy,
    oracle_dot,
    oracle_scal,
    oracle_scaled_copy,
)
from .vectors import DenseVector

__all__ = [
    "BenchRecord",
    "OPS",
    "VARIANTS",
    "default_sizes",
    "run_sweep",
    "emit_csv",
    "main",
]

OPS = ("dot", "scal", "axpy", "scaled_copy")
VARIANTS = ("engine", "naive", "engine-U1", "engine-U2", "engine-U4", "engine-U8")

_FLOPS_PER_ELEMENT = {"dot": 2, "scal": 1, "axpy": 2, "scaled_copy": 1}
_SCALARS_MOVED_PER_ELEMENT = {"dot": 2, "scal": 2, "axpy": 3, "scaled_copy": 2}

CSV_HEADER = "op,variant,type,n,reps,best_s,median_s,gflops,gbytes"

_ALPHA = 1.25


@dataclass(frozen=True)
class BenchRecord:
    """One measurement: an operation at one size under one variant."""

    op: str
    variant: str
    type: str
    n: int
    reps: int
    best_s: float
    median_s: float
    gflops: float
    gbytes: float


def default_sizes() -> list:
    """Powers of two from 2^6 to 2^22, each with its +-1 neighbors.

    The off-by-one sizes keep the remainder loop exercised under load.
    """
    sizes = set()
    for p in range(6, 23):
        n = 1 << p
        sizes.update((n - 1, n, n + 1))
    return sorted(sizes)


def flop_count(op: str, n: int) -> int:
    return _FLOPS_PER_ELEMENT[op] * n


def bytes_moved(op: str, n: int, dtype) -> int:
    return _SCALARS_MOVED_PER_ELEMENT[op] * n * as_dtype(dtype).itemsize


def _make_data(op: str, n: int, dtype, seed: int):
    rng = np.random.default_rng([seed, n, OPS.index(op)])
    x = DenseVector.from_values(rng.uniform(-1.0, 1.0, n), dtype)
    y = None
    out = None
    if op in ("dot", "axpy"):
        y = DenseVector.from_values(rng.uniform(-1.0, 1.0, n), dtype)
    if op == "scaled_copy":
        out = DenseVector.zeros(n, dtype)
    return x, y, out


def _engine_call(op: str, x, y, out, alpha, options):
    if op == "dot":
        return lambda: _ops.dot(x, y, **options)
    if op == "scal":
        return lambda: _ops.scal(alpha, x, **options)
    if op == "axpy":
        return lambda: _ops.axpy(alpha, x, y, **options)
    if op == "scaled_copy":
        return lambda: _ops.scaled_copy(alpha, x, out, **options)
    raise ValueError(f"unknown op {op!r}")


def _naive_call(op: str, x, y, alpha):
    xs = x.to_values()
    ys = y.to_values() if y is not None else None
    if op == "dot":
        return lambda: oracle_dot(xs, ys)
    if op == "scal":
        return lambda: oracle_scal(alpha, xs)
    if op == "axpy":
        return lambda: oracle_axpy(alpha, xs, ys)
    if op == "scaled_copy":
        return lambda: oracle_scaled_copy(alpha, xs)
    raise ValueError(f"unknown op {op!r}")


def _variant_options(variant: str):
    if variant.startswith("engine-U"):
        return {"unroll": int(variant[len("engine-U") :])}
    return {}


def measure(op: str, variant: str, n: int, dtype, reps: int, warmup: int,
            seed: int) -> BenchRecord:
    """Time one op/variant/size combination and derive throughput."""
    dt = as_dtype(dtype)
    alpha = dt.type(_ALPHA)
    x, y, out = _make_data(op, n, dt, seed)

    if variant == "naive":
        call = _naive_call(op, x, y, alpha)
        restore = None
    else:
        call = _engine_call(op, x, y, out, alpha, _variant_options(variant))
        # In-place ops are re-run many times; reset the mutated operand
        # between reps, outside the timed region.
        if op == "scal" and n:
            pristine = x.to_array()
            restore = lambda: x.write_block(0, n, pristine)
        elif op == "axpy" and n:
            pristine = y.to_array()
            restore = lambda: y.write_block(0, n, pristine)
        else:
            restore = None

    for _ in range(warmup):
        if restore:
            restore()
        call()

    times = []
    for _ in range(reps):
        if restore:
            restore()
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)

    best = min(times)
    med = statistics.median(times)
    return BenchRecord(
        op=op,
        variant=variant,
        type=dtype_name(dt),
        n=n,
        reps=reps,
        best_s=best,
        median_s=med,
        gflops=flop_count(op, n) / best / 1e9,
        gbytes=bytes_moved(op, n, dt) / best / 1e9,
    )


def run_sweep(ops, variants, sizes, dtype="f32", reps=25, warmup=5, seed=0) -> list:
    """Measure every op x variant x size; record count is exactly the product."""
    for op in ops:
        if op not in OPS:
            raise ValueError(f"unknown op {op!r}; choose from {', '.join(OPS)}")
    for variant in variants:
        if variant not in VARIANTS:
            raise ValueError(
                f"unknown variant {variant!r}; choose from {', '.join(VARIANTS)}"
            )
    records = []
    for op in ops:
        for variant in variants:
            for n in sizes:
                records.append(measure(op, variant, n, dtype, reps, warmup, seed))
    return records


def _format_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def record_lines(records):
    yield CSV_HEADER
    for r in records:
        yield ",".join(
            _format_value(v)
            for v in (
                r.op, r.variant, r.type, r.n, r.reps,
                r.best_s, r.median_s, r.gflops, r.gbytes,
            )
        )


def emit_csv(records, destination) -> None:
    """Write the header plus one row per record.

    destination is a path, or "-" for stdout. Floats are written in
    shortest round-trip decimal, so re-parsing reproduces them exactly.
    OSError propagates to the caller.
    """
    if destination == "-":
        for line in record_lines(records):
            sys.stdout.write(line + "\n")
        return
    with open(destination, "w") as f:
        for line in record_lines(records):
            f.write(line + "\n")


def parse_csv(text: str) -> list:
    """Inverse of emit_csv, for tests and downstream tooling."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing or malformed CSV header")
    records = []
    for ln in lines[1:]:
        op, variant, typ, n, reps, best_s, median_s, gflops, gbytes = ln.split(",")
        records.append(
            BenchRecord(op, variant, typ, int(n), int(reps), float(best_s),
                        float(median_s), float(gflops), float(gbytes))
        )
    return records


def _parse_sizes(text: str, parser) -> list:
    if text == "default":
        return default_sizes()
    try:
        sizes = [int(part) for part in text.split(",") if part]
    except ValueError:
        parser.error(f"--sizes expects integers or 'default', got {text!r}")
    if not sizes or any(n < 0 for n in sizes):
        parser.error("--sizes expects non-negative integers")
    return sizes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lanevec-bench",
        description="Sweep level-1 vector kernels over sizes and emit CSV.",
    )
    parser.add_argument("--op", default="all",
                        help=f"comma list from: {','.join(OPS)}, or 'all' (default)")
    parser.add_argument("--type", default="f32", choices=("f32", "f64"))
    parser.add_argument("--variants", default="engine,naive",
                        help=f"comma list from: {','.join(VARIANTS)}")
    parser.add_argument("--sizes", default="default",
                        help="comma list of lengths, or 'default' for the "
                             "2^6..2^22 power-of-two sweep with +-1 neighbors")
    parser.add_argument("--reps", type=int, default=25)
    parser.add_argument("--warmup", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--csv", default="-", help="output path, '-' for stdout")
    parser.add_argument("--cache-sizes", default=None,
                        help="comma list of cache sizes in bytes, recorded in "
                             "a .meta sidecar for plotting")
    args = parser.parse_args(argv)

    ops = list(OPS) if args.op == "all" else [op for op in args.op.split(",") if op]
    if not ops:
        parser.error("--op expects a comma list of ops or 'all'")
    for op in ops:
        if op not in OPS:
            parser.error(f"unknown op {op!r}; choose from {', '.join(OPS)} or all")
    variants = [v for v in args.variants.split(",") if v]
    for variant in variants:
        if variant not in VARIANTS:
            parser.error(
                f"unknown variant {variant!r}; choose from {', '.join(VARIANTS)}"
            )
    sizes = _parse_sizes(args.sizes, parser)
    if args.reps < 1 or args.warmup < 0:
        parser.error("--reps must be >= 1 and --warmup >= 0")

    cache_sizes = None
    if args.cache_sizes is not None:
        try:
            cache_sizes = [int(part) for part in args.cache_sizes.split(",") if part]
        except ValueError:
            parser.error(f"--cache-sizes expects integers, got {args.cache_sizes!r}")

    records = run_sweep(ops, variants, sizes, dtype=args.type, reps=args.reps,
                        warmup=args.warmup, seed=args.seed)

    try:
        emit_csv(records, args.csv)
    except OSError as exc:
        print(f"error: cannot write CSV to {args.csv}: {exc}", file=sys.stderr)
        return 1

    if cache_sizes is not None:
        if args.csv == "-":
            print("note: --cache-sizes ignored when CSV goes to stdout",
                  file=sys.stderr)
        else:
            meta_path = args.csv + ".meta"
            try:
                with open(meta_path, "w") as f:
                    f.write("cache_sizes_bytes," +
                            ",".join(str(c) for c in cache_sizes) + "\n")
            except OSError as exc:
                print(f"error: cannot write {meta_path}: {exc}", file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

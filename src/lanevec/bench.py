"""Benchmark harness: size sweeps over the level-1 ops with CSV output.

Measures the fused engine against NumPy doing the same op, against the
naive scalar loop and against the engine pinned to specific unroll
factors, across vector sizes spanning the cache hierarchy. Timing is
best-of-R plus median-of-R over seeded random data, which the variants of
one op, type and size share; each rep times every one of those variants
once, in an order that alternates from rep to rep, so a change in host
speed reaches them alike. Throughput columns are derived from the best
time. Strictly single threaded; pin the process to one core for stable
numbers, and cap NumPy's BLAS threads (OMP_NUM_THREADS=1 and its kin) so
that `numpy` is single threaded too.
With --json the records also go to a file with the host's metadata and
each record's best time over the `numpy` record's for the same op, type
and size: how close the call came to the NumPy roofline.

engine-U1 ... engine-U8 pin the unroll factor only for the reductions,
dot, sum and norm2. For scal, axpy and scaled_copy the block executor
checks the override and then runs the default strips, so those rows
differ from engine only by the cost of the check. engine-stepped runs
every op on the stepped executor, under the default plan.

Everything the sweep knows of an op, its flop and traffic accounting
included, is its one entry in _KERNELS; everything it knows of a
variant, the call it builds from an op's kernel and one point's data, is
its one entry in _VARIANTS.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, astuple, dataclass
from functools import partial

import numpy as np

from . import ops as _ops
from .lanes import as_dtype, dtype_name, is_count
from .oracle import (
    oracle_axpy,
    oracle_dot,
    oracle_scal,
    oracle_scaled_copy,
    oracle_sum,
)
from .vectors import DenseVector

__all__ = [
    "BenchRecord",
    "OPS",
    "VARIANTS",
    "default_sizes",
    "run_sweep",
    "emit_csv",
    "emit_json",
    "host_metadata",
    "main",
]


@dataclass(frozen=True)
class _Kernel:
    """One op of the sweep.

    flops and scalars (read plus written) count per element. args names
    the engine call's positional arguments, from alpha, x, y and out;
    _make_data builds y and out only for the ops that name them. The
    naive call is the oracle, which takes the same arguments minus out
    and returns what the engine writes there. numpy takes the same
    arguments as the engine call, with arrays for vectors, and returns
    the NumPy call that does the op; a temporary it needs is made there,
    outside the timed call. updates names the operand the engine and
    NumPy calls read and overwrite, which measure restores before every
    call.
    """

    flops: int
    scalars: int
    args: tuple
    engine: Callable
    naive: Callable
    numpy: Callable
    updates: str = None


def _numpy_axpy(alpha, x, y):
    tmp = np.empty_like(x)

    def axpy():
        np.multiply(alpha, x, out=tmp)
        np.add(y, tmp, out=y)

    return axpy


_KERNELS = {
    # read x, read y
    "dot": _Kernel(2, 2, ("x", "y"), _ops.dot, oracle_dot,
                   lambda x, y: partial(np.dot, x, y)),
    # read x, write x
    "scal": _Kernel(1, 2, ("alpha", "x"), _ops.scal, oracle_scal,
                    lambda alpha, x: partial(np.multiply, alpha, x, out=x),
                    updates="x"),
    # read x, read y, write y
    "axpy": _Kernel(2, 3, ("alpha", "x", "y"), _ops.axpy, oracle_axpy,
                    _numpy_axpy, updates="y"),
    # read x, write out
    "scaled_copy": _Kernel(1, 2, ("alpha", "x", "out"), _ops.scaled_copy,
                           oracle_scaled_copy,
                           lambda alpha, x, out: partial(np.multiply, alpha, x, out=out)),
    # read x
    "sum": _Kernel(1, 1, ("x",), _ops.sum, oracle_sum, lambda x: partial(np.sum, x)),
    # read x; the square root is one flop per call, not per element
    "norm2": _Kernel(2, 1, ("x",), _ops.norm2,
                     lambda x: np.sqrt(oracle_dot(x, x)),
                     lambda x: lambda: np.sqrt(np.dot(x, x))),
}


def _engine(**options):
    return lambda kernel, args: partial(kernel.engine, *args.values(), **options)


# Each entry builds its variant's call from an op's _Kernel and one point's
# data: the engine call's arguments by name, in order, vectors as
# DenseVectors. naive passes lists to the oracle, numpy the storage arrays.
_VARIANTS = {
    "engine": _engine(),
    "naive": lambda kernel, args: partial(kernel.naive, *(
        value if name == "alpha" else value.to_values()
        for name, value in args.items() if name != "out")),
    "numpy": lambda kernel, args: kernel.numpy(*(
        value if name == "alpha" else value.write_window(0, len(value))
        for name, value in args.items())),
    **{f"engine-U{u}": _engine(unroll=u) for u in (1, 2, 4, 8)},
    "engine-stepped": _engine(stepped=True),
}

OPS = tuple(_KERNELS)
VARIANTS = tuple(_VARIANTS)
TYPES = ("f32", "f64")

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
    return _KERNELS[op].flops * n


def bytes_moved(op: str, n: int, dtype) -> int:
    return _KERNELS[op].scalars * n * as_dtype(dtype).itemsize


def _make_data(op: str, n: int, dtype, seed: int):
    args = _KERNELS[op].args
    rng = np.random.default_rng([seed, n, OPS.index(op)])
    x = DenseVector.from_values(rng.uniform(-1.0, 1.0, n), dtype)
    y = out = None
    if "y" in args:
        y = DenseVector.from_values(rng.uniform(-1.0, 1.0, n), dtype)
    if "out" in args:
        out = DenseVector.zeros(n, dtype)
    return x, y, out


def _check_names(ops, variants) -> None:
    for kind, names, known in (("op", ops, _KERNELS), ("variant", variants, _VARIANTS)):
        if not names:
            raise ValueError(f"no {kind} given; choose from {', '.join(known)}")
        for name in names:
            if name not in known:
                raise ValueError(
                    f"unknown {kind} {name!r}; choose from {', '.join(known)}"
                )


def measure(op: str, variants, n: int, dtype, reps: int, warmup: int,
            seed: int) -> list:
    """Time the variants of one op, type and size on one set of data and
    derive throughput: one record per variant, in the order given.

    Each warm-up or timed rep calls every variant once, in the given order
    on even reps and reversed on odd ones. The operand an op updates in
    place is restored before every call, outside the timed region, so no
    call sees another's result. An unknown op or variant raises
    ValueError, as in run_sweep, before any data is built.
    """
    _check_names([op], variants)
    dt = as_dtype(dtype)
    kernel = _KERNELS[op]
    x, y, out = _make_data(op, n, dt, seed)
    named = {"alpha": dt.type(_ALPHA), "x": x, "y": y, "out": out}
    args = {a: named[a] for a in kernel.args}
    calls = [_VARIANTS[variant](kernel, args) for variant in variants]
    restore = None
    if kernel.updates and n:
        updated = args[kernel.updates]
        restore = partial(updated.write_block, 0, n, updated.to_array())

    times = [[] for _ in calls]
    runs = list(zip(calls, times))
    for rep in range(warmup + reps):
        for call, samples in runs if rep % 2 == 0 else runs[::-1]:
            if restore:
                restore()
            t0 = time.perf_counter()
            call()
            elapsed = time.perf_counter() - t0
            if rep >= warmup:
                samples.append(elapsed)

    records = []
    for variant, timed in zip(variants, times):
        best = min(timed)
        records.append(BenchRecord(
            op=op,
            variant=variant,
            type=dtype_name(dt),
            n=n,
            reps=reps,
            best_s=best,
            median_s=statistics.median(timed),
            gflops=flop_count(op, n) / best / 1e9,
            gbytes=bytes_moved(op, n, dt) / best / 1e9,
        ))
    return records


def run_sweep(ops, variants, sizes, dtype="f32", reps=25, warmup=5, seed=0) -> list:
    """Measure every op x variant x size; record count is exactly the product,
    ordered by op, then variant, then size. The variants of one op and
    size are timed together, interleaved (see measure).

    Every input is checked before the first measurement: ValueError if a
    list is empty, a name unknown, a size, reps or warmup not an integer, a
    size negative, reps < 1 or warmup < 0.
    """
    _check_names(ops, variants)
    if not sizes or not all(is_count(n) and n >= 0 for n in sizes):
        raise ValueError("sizes must be one or more non-negative integers")
    for name, value, least in (("reps", reps, 1), ("warmup", warmup, 0)):
        if not is_count(value) or value < least:
            raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    points = [[measure(op, variants, n, dtype, reps, warmup, seed) for n in sizes]
              for op in ops]
    return [point[k] for row in points for k in range(len(variants)) for point in row]


def emit_csv(records, destination) -> None:
    """Write the header plus one row per record.

    destination is a path, or "-" for stdout. Every field is written with
    str, the shortest round-trip decimal for Python and NumPy floats alike,
    so re-parsing reproduces them exactly. OSError propagates to the caller.
    """
    rows = [CSV_HEADER] + [",".join(map(str, astuple(r))) for r in records]
    text = "\n".join(rows) + "\n"
    if destination == "-":
        sys.stdout.write(text)
        return
    with open(destination, "w") as f:
        f.write(text)


def _sysfs_caches() -> dict:
    """cpu0's cache sizes by level and type, e.g. {"L1d": "48K"}; empty
    where sysfs does not show them."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    caches = {}
    try:
        for entry in sorted(os.listdir(base)):
            if entry.startswith("index"):
                fields = {}
                for key in ("level", "type", "size"):
                    with open(os.path.join(base, entry, key)) as f:
                        fields[key] = f.read().strip()
                caches[f"L{fields['level']}{fields['type'][0].lower()}"] = fields["size"]
    except OSError:
        return {}
    return caches


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git(*args):
    """A git command's output in this file's checkout, or None where there
    is none."""
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        done = subprocess.run(["git", "-C", here, *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def host_metadata() -> dict:
    """The host and checkout a sweep ran on: Python and NumPy versions,
    CPU model and count, the affinity mask, NumPy's enabled CPU features,
    the sysfs cache sizes, and git HEAD with a dirty flag (None outside a
    checkout)."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # NumPy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    head = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if head else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "affinity": (sorted(os.sched_getaffinity(0))
                     if hasattr(os, "sched_getaffinity") else None),
        "cpu_features": sorted(k for k, on in __cpu_features__.items() if on),
        "caches": _sysfs_caches(),
        "git_head": head,
        "git_dirty": None if status is None else bool(status),
    }


def emit_json(records, path, command=None) -> None:
    """Write the records, the host's metadata and the command to `path`.
    Each record gains vs_numpy, its best time over that of the numpy
    record for the same op, type and size (below 1 is faster than NumPy),
    or None if the sweep has no such record. OSError propagates."""
    numpy_best = {(r.op, r.type, r.n): r.best_s for r in records if r.variant == "numpy"}
    rows = []
    for r in records:
        base = numpy_best.get((r.op, r.type, r.n))
        rows.append({**asdict(r), "vs_numpy": None if base is None else r.best_s / base})
    document = {"host": host_metadata(), "command": command, "records": rows}
    with open(path, "w") as f:
        json.dump(document, f, indent=1)
        f.write("\n")


def _split(text: str) -> list:
    return [part for part in text.split(",") if part]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lanevec-bench",
        description="Sweep level-1 vector kernels over sizes and emit CSV.",
    )
    parser.add_argument("--op", default="all",
                        help=f"comma list from: {','.join(OPS)}, or 'all' (default)")
    parser.add_argument("--type", default="f32",
                        help=f"comma list from: {','.join(TYPES)} (default f32)")
    parser.add_argument("--variants", default="engine,naive",
                        help=f"comma list from: {','.join(VARIANTS)}")
    parser.add_argument("--sizes", default="default",
                        help="comma list of lengths, or 'default' for the "
                             "2^6..2^22 power-of-two sweep with +-1 neighbors")
    parser.add_argument("--reps", type=int, default=25)
    parser.add_argument("--warmup", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--csv", default="-", help="output path, '-' for stdout")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the records with host metadata and "
                             "each one's time relative to the numpy variant")
    args = parser.parse_args(argv)

    ops = list(OPS) if args.op == "all" else _split(args.op)
    types = _split(args.type)
    if not types or not set(types) <= set(TYPES):
        parser.error(f"--type takes a comma list from: {','.join(TYPES)}")
    try:
        sizes = (default_sizes() if args.sizes == "default"
                 else [int(part) for part in _split(args.sizes)])
        records = []
        for dtype in types:
            records += run_sweep(ops, _split(args.variants), sizes, dtype=dtype,
                                 reps=args.reps, warmup=args.warmup, seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))

    command = ["lanevec-bench", *(sys.argv[1:] if argv is None else argv)]
    outputs = [("CSV", args.csv, lambda path: emit_csv(records, path))]
    if args.json:
        outputs.append(("JSON", args.json, lambda path: emit_json(records, path, command)))
    for kind, path, write in outputs:
        try:
            write(path)
        except OSError as exc:
            print(f"error: cannot write {kind} to {path}: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

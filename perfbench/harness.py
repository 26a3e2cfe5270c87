"""Seeded workloads, the NumPy reference and the per-call checks.

A workload is one round of calls generated from the seed; the measurement
loop repeats that round. A round makes two passes over its calls:

1. each lanevec entry point, timed;
2. for each call, the NumPy reference, timed, writing only benchmark-owned
   scratch; then the checks and the restore of the call's destination,
   untimed.

So a call's operands were last touched a whole pass earlier, and at
dram-stream size they come from memory, not from a cache the reference or
the restore has just filled. Every call writes its own destination `out`.
In-place ops (`scal`, `axpy`) act on it, and it is restored from a source
vector after the checks, so repeated calls never drift toward inf or
subnormals. Source vectors are never written after set-up.
"""

import math
import statistics
import time

import numpy as np

import lanevec as lv
from lanevec.expressions import (
    AddNode,
    AssignNode,
    Leaf,
    MulNode,
    ScaleNode,
    SubNode,
    SumNode,
    as_node,
)

WORKLOADS = ("small-calls", "cache-resident", "dram-stream")
OPS = ("dot", "sum", "norm2", "scal", "axpy", "scaled_copy", "assign")
REDUCTIONS = frozenset(("dot", "sum", "norm2"))

SMALL_MAX_N = 4097
SMALL_STRATA = 128  # vector sizes per dtype in one small-calls round
STEPPED_MAX_N = 256
STEPPED_SHARE = 16  # one call in 16 runs the stepped executor
CACHE_N = 1 << 16
CACHE_TAIL = 7  # cache-resident calls have n = CACHE_N + CACHE_TAIL
# A dram-stream call works on one window of three long f32 vectors; each
# window has its own call, and a round touches about 2.4x a 105 MiB L3 of
# windows, so no call finds its operands in cache.
DRAM_WINDOW = (1 << 19) + 7  # elements per call, 2 MiB
DRAM_STRIDE = (1 << 19) + 64  # window starts stay 64-byte aligned
CHUNK = 1 << 16  # elements per chunk in fills and checks
EXACT_SUM_MAX_N = 1 << 20  # above this, float32 references add float64 chunk partials

# Elements moved per element index, in units of the element size.
ELEMS_MOVED = {"dot": 2, "sum": 1, "norm2": 1, "scal": 2, "axpy": 3, "scaled_copy": 2}

# Sources of the fused `out.assign(...)` calls, rebuilt on every timed call.
# The comment gives the register footprint with the assign root and the
# default unroll it gets under the budget of 16.
TREES = {
    "t2": lambda x, y, z, w, a, b: a * x + y,  # 4, U=4
    "t3": lambda x, y, z, w, a, b: (x + y) * (z - a * w),  # 6, U=2
    "t4": lambda x, y, z, w, a, b: ((x - y) * z + a * w) * x,  # 7, U=2
    # 17 > 16: over the budget, so the plan falls back to U=1 and spills
    "spill": lambda x, y, z, w, a, b: (
        ((x + y) * (z - w) + (x * z - y * w)) * ((y + z) * (w - x) - (a * x + b * w))
    ),
}

# small-calls and cache-resident: the six ops and the four trees
KINDS = ("dot", "sum", "norm2", "scal", "axpy", "scaled_copy", "t2", "t3", "t4", "spill")
# t2 is the cheapest fused tree, and its NumPy reference needs one scratch
# array.
DRAM_KINDS = ("dot", "sum", "norm2", "scaled_copy", "axpy", "scal", "t2")
DRAM_WINDOWS = 8 * len(DRAM_KINDS)  # 8 calls of each kind: 112 MiB vectors

_UFUNCS = {AddNode: np.add, SubNode: np.subtract, MulNode: np.multiply}
_UINT = {4: np.uint32, 8: np.uint64}


def fill_seeded(vec, rng):
    """Fill a DenseVector chunk by chunk with magnitudes in [0.5, 2) and
    random signs: no zeros, no subnormals, and products of a few factors
    stay far from overflow."""
    n = len(vec)
    r = np.empty(min(n, CHUNK), vec.dtype)
    half = np.empty_like(r)
    for lo in range(0, n, CHUNK):
        hi = min(n, lo + CHUNK)
        rr, hh = r[: hi - lo], half[: hi - lo]
        rng.random(out=rr, dtype=vec.dtype.type)
        rr *= 3
        rr -= 1.5
        np.copysign(0.5, rr, out=hh)
        rr += hh
        vec.write_block(lo, hi, rr)


class VectorSet:
    """Vectors of one dtype and length: seeded read-only sources, `outs`
    destinations, and NumPy scratch arrays made on demand."""

    def __init__(self, dtype, n, rng, sources="xyzw", outs=1):
        self.dtype = dtype
        self.n = n
        t0 = time.perf_counter()
        vectors = [lv.DenseVector.zeros(n, dtype) for _ in range(len(sources) + outs)]
        self.alloc_s = time.perf_counter() - t0
        self.outs = vectors[len(sources):]
        self.src = dict(zip(sources, vectors))
        for v in self.src.values():
            fill_seeded(v, rng)
        self._scratch = []

    def window(self, lo, hi, scratch):
        """A VectorSet over [lo, hi) of these vectors, sharing their storage
        and the given scratch list with the other windows."""
        view = lambda v: lv.DenseVector(v.read_block(lo, hi), v.dtype)  # noqa: E731
        win = object.__new__(VectorSet)
        win.dtype, win.n, win.alloc_s = self.dtype, hi - lo, 0.0
        win.src = {k: view(v) for k, v in self.src.items()}
        win.outs = [view(v) for v in self.outs]
        win._scratch = scratch
        return win

    def scratch(self, level):
        while len(self._scratch) <= level:
            s = np.empty(self.n, self.src["x"].dtype)
            s.fill(0)  # touch every page now, not inside a timed call
            self._scratch.append(s)
        return self._scratch[level]

    def view(self, name):
        return self.src[name].read_block(0, self.n)


def numpy_steps(node, lo, hi, scratch):
    """Ufunc steps that evaluate an expression tree over [lo, hi) in the
    element type, each writing with out= into scratch(level).

    Operand order matches the tree, so the result is the NumPy expression
    the engine must reproduce bit for bit. Returns (steps, result array).
    """
    steps = []

    def visit(node, level):
        if isinstance(node, Leaf):
            return node.vector.read_block(lo, hi)
        dst = scratch(level)
        if isinstance(node, ScaleNode):
            steps.append((np.multiply, node.alpha, visit(node.child, level), dst))
            return dst
        left = visit(node.left, level)
        right = visit(node.right, level if isinstance(node.left, Leaf) else level + 1)
        steps.append((_UFUNCS[type(node)], left, right, dst))
        return dst

    return steps, visit(node, 0)


def run_steps(steps):
    for ufunc, a, b, out in steps:
        ufunc(a, b, out=out)


class Call:
    """One entry-point call with its NumPy reference and its checks. The
    call writes `out`, which no other call of the round writes."""

    def __init__(self, kind, vs, out, rng, stepped=False):
        self.kind = kind
        self.op = kind if kind in ELEMS_MOVED else "assign"
        self.dtype = vs.dtype
        self.n = vs.n
        self.stepped = stepped
        self.vs = vs
        self.out = out
        a, b = (float(v) for v in rng.uniform(0.5, 2.0, 2))
        x, y = vs.src["x"], vs.src["y"]
        z, w = vs.src.get("z"), vs.src.get("w")
        xa, ya = vs.view("x"), vs.view("y")
        n = vs.n
        self.reset = None
        # run(stepped) makes the call through the public entry point
        if kind == "dot":
            self.source = lambda: x * y
            self.run = lambda st: lv.dot(x, y, stepped=st)
            self.reference = lambda: np.dot(xa, ya)
        elif kind == "sum":
            self.source = lambda: x
            self.run = lambda st: lv.sum(x, stepped=st)
            self.reference = lambda: np.sum(xa)
        elif kind == "norm2":
            self.source = lambda: y * y
            self.run = lambda st: lv.norm2(y, stepped=st)
            self.reference = lambda: np.sqrt(np.dot(ya, ya))
        elif kind == "scal":
            self.source = lambda: a * out
            self.reset = x
            self.run = lambda st: lv.scal(a, out, stepped=st)
            # the same expression with the restored value in place of out
            expected = lambda: a * x  # noqa: E731
        elif kind == "axpy":
            self.source = lambda: out + a * x
            self.reset = y
            self.run = lambda st: lv.axpy(a, x, out, stepped=st)
            expected = lambda: y + a * x  # noqa: E731
        elif kind == "scaled_copy":
            self.source = lambda: a * x
            self.run = lambda st: lv.scaled_copy(a, x, out, stepped=st)
        else:
            tree = TREES[kind]
            self.source = lambda: tree(x, y, z, w, a, b)
            self.run = lambda st: out.assign(tree(x, y, z, w, a, b), stepped=st)

        root = self.build()
        if self.op in REDUCTIONS:
            self.execute = lv.execute_reduce
            elems = ELEMS_MOVED[kind]
        else:
            self.execute = lv.execute_assign
            # The reference runs after the call has changed out, so an
            # in-place op's reference reads the vector out is restored from.
            ref = as_node(expected()) if self.reset is not None else root.source
            steps, self.expected = numpy_steps(ref, 0, n, vs.scratch)
            self.reference = lambda: run_steps(steps)
            distinct_leaves = len({id(leaf.vector) for leaf in root.source.leaves()})
            elems = ELEMS_MOVED.get(kind) or distinct_leaves + 1
        self.nbytes = elems * n * root.dtype.itemsize
        plan = lv.select_plan(root.register_footprint, n, lv.default_backend(root.dtype).caps)
        self.block = plan.block
        self.tail = n - plan.masked_length
        self.restore()

    def build(self):
        """The call's tree, built with node constructors and operators."""
        source = as_node(self.source())
        if self.op in REDUCTIONS:
            return SumNode(source)
        return AssignNode(Leaf(self.out), source)

    def restore(self):
        """Reset the destination of an in-place op to its starting value."""
        if self.reset is not None:
            self.out.write_block(0, self.n, self.reset.read_block(0, self.n))

    # -- checks ---------------------------------------------------------

    def check(self, result):
        """Return (ok, error as a share of the allowed bound)."""
        if self.op in REDUCTIONS:
            return self._check_reduction(result)
        return self._check_elementwise(), 0.0

    def _check_elementwise(self):
        """Bit-identical to the NumPy expression in the element type."""
        got = self.out
        as_uint = _UINT[self.expected.dtype.itemsize]
        differ = np.empty(min(self.n, CHUNK), bool)
        for lo in range(0, self.n, CHUNK):
            hi = min(self.n, lo + CHUNK)
            a = got.read_block(lo, hi).view(as_uint)
            b = self.expected[lo:hi].view(as_uint)
            if np.not_equal(a, b, out=differ[: hi - lo]).any():
                return False
        return True

    def _check_reduction(self, result):
        """Within the blocked-summation bound against an exact reference.

        The engine sums the terms t_i (products already rounded in the
        element type) in U*W lane accumulators, folds the lanes, then adds
        the scalar tail. Each term passes through at most
        k = n/(U*W) + U*W + tail + 2 roundings, so
        |result - sum t_i| <= gamma_k * sum |t_i| with gamma_k = k*u/(1-k*u)
        and u the unit roundoff (Higham, Accuracy and Stability of
        Numerical Algorithms, section 4.2).
        """
        root = self.build()
        u = float(np.finfo(root.dtype).eps) / 2
        k = self.n / self.block + self.block + self.tail + 2
        gamma = k * u / (1 - k * u)
        exact, magnitude, ref_err = reference_sum(root.child, self.n)
        bound = gamma * magnitude + ref_err
        value = float(result)
        if self.kind == "norm2":
            # r = fl(sqrt(s)) with |s - S| <= bound gives |r^2 - S| <=
            # bound + 3u(S + bound); r*r in float64 adds far less than u.
            bound += 3 * u * (exact + bound)
            value = value * value
        err = abs(value - exact)
        if not math.isfinite(value):
            return False, math.inf
        if bound == 0:
            return err == 0, 0.0
        return err <= bound, err / bound


def term_chunks(node, n):
    """Yield the terms of node over [0, n) in float64, CHUNK at a time.

    Terms are evaluated in the element type (float32 and float64 values
    convert to float64 exactly) into buffers reused across chunks, so no
    full-length temporary is made. The yielded array is overwritten by the
    next chunk.
    """
    size = min(n, CHUNK)
    bufs, t = [], np.empty(size, np.float64)
    for lo in range(0, n, CHUNK):
        hi = min(n, lo + CHUNK)

        def scratch(level):
            while len(bufs) <= level:
                bufs.append(np.empty(size, node.dtype))
            return bufs[level][: hi - lo]

        steps, terms = numpy_steps(node, lo, hi, scratch)
        run_steps(steps)
        np.copyto(t[: hi - lo], terms)
        yield t[: hi - lo]


def reference_sum(node, n):
    """(sum t_i, sum |t_i|, bound on the error of that sum) over the terms
    of node.

    The sum is math.fsum over every term, which is exact, for float64 and
    up to EXACT_SUM_MAX_N elements. Larger float32 sums add float64 chunk
    partials with math.fsum; the returned error bounds the float64 step,
    which is below 2^-27 of the float32 bound.
    """
    if n <= EXACT_SUM_MAX_N or node.dtype.itemsize == 8:
        total = math.fsum(v for t in term_chunks(node, n) for v in t.tolist())
        magnitude = math.fsum(abs(v) for t in term_chunks(node, n) for v in t.tolist())
        return total, magnitude, 0.0
    partials, magnitudes = [], []
    gamma = CHUNK * 2.0**-53 / (1 - CHUNK * 2.0**-53)
    for t in term_chunks(node, n):
        partials.append(float(t.sum()))
        magnitudes.append(float(np.abs(t, out=t).sum()))
    # each float64 partial of |t| may be low by a factor (1 - gamma); scale
    # up so that the bound stays an upper bound
    magnitude = math.fsum(magnitudes) / (1 - gamma)
    return math.fsum(partials), magnitude, gamma * magnitude


# -- workloads ----------------------------------------------------------


class Workload:
    """The vector sets and the round of calls of one workload and seed."""

    def __init__(self, name, seed):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        rng = np.random.default_rng([seed, WORKLOADS.index(name)])
        if name == "small-calls":
            calls = self._small(rng)
        elif name == "cache-resident":
            calls = self._sized(rng, [(dt, CACHE_N + CACHE_TAIL) for dt in ("f32", "f64")])
        else:
            calls = self._dram(rng)
        self.calls = calls

    def _sets(self, rng, shapes, sources="xyzw", outs=len(KINDS)):
        sets = [VectorSet(dt, n, rng, sources, outs) for dt, n in shapes]
        self.alloc_s = sum(vs.alloc_s for vs in sets)
        self.vector_n = max(vs.n for vs in sets)
        return sets

    def _small(self, rng):
        # Stratified log-uniform sizes over [0, SMALL_MAX_N], the same for
        # every kind, so each round mixes sizes identically for every seed
        # and only the values inside each stratum change.
        shapes = []
        for dt in ("f32", "f64"):
            u = (np.arange(SMALL_STRATA) + rng.random(SMALL_STRATA)) / SMALL_STRATA
            sizes = np.floor(np.power(SMALL_MAX_N + 1.0, u)).astype(int) - 1
            shapes += [(dt, int(n)) for n in sizes]
        sets = self._sets(rng, shapes)
        triples = [(kind, vs, out) for vs in sets for kind, out in zip(KINDS, vs.outs)]
        order = rng.permutation(len(triples))
        triples = [triples[i] for i in order]
        small = [i for i, (_, vs, _) in enumerate(triples) if vs.n <= STEPPED_MAX_N]
        stepped = set(rng.choice(small, len(triples) // STEPPED_SHARE, replace=False).tolist())
        return [Call(*t, rng, i in stepped) for i, t in enumerate(triples)]

    def _sized(self, rng, shapes):
        # The sizes and the call order do not depend on the seed: the seed
        # only makes the values and scalars.
        sets = self._sets(rng, shapes)
        return [Call(kind, vs, out, rng) for vs in sets for kind, out in zip(KINDS, vs.outs)]

    def _dram(self, rng):
        (vs,) = self._sets(rng, [("f32", DRAM_WINDOWS * DRAM_STRIDE)], sources="xy", outs=1)
        self._whole = vs
        scratch = []
        calls = []
        for i in range(DRAM_WINDOWS):
            lo = i * DRAM_STRIDE
            win = vs.window(lo, lo + DRAM_WINDOW, scratch)
            calls.append(Call(DRAM_KINDS[i % len(DRAM_KINDS)], win, win.outs[0], rng))
        return calls

    def whole_vector_calls(self, rng):
        """dram-stream only: a fused tree and a dot over the whole vectors,
        made once after the timed rounds, untimed but checked, so that a
        full-length temporary an executor makes shows in peak RSS. They
        are built only here, because the tree's reference needs a
        full-length scratch array."""
        if self.name != "dram-stream":
            return []
        vs = self._whole
        return [Call(kind, vs, vs.outs[0], rng) for kind in ("t2", "dot")]


def warm_up(rng):
    """Run every kind once per dtype and executor at a small size, so the
    first timed call finds code paths and caches warm."""
    for dt in ("f32", "f64"):
        vs = VectorSet(dt, STEPPED_MAX_N + 1, rng, outs=len(KINDS))
        for kind, out in zip(KINDS, vs.outs):
            for stepped in (False, True):
                call = Call(kind, vs, out, rng, stepped)
                call.run(stepped)
                call.reference()


# -- measurement --------------------------------------------------------

# The host is shared, and its speed drifts: the same Python loop runs up to
# 1.6x slower for minutes at a time, and by up to 2x between neighbouring
# seconds. So every round also times a fixed calibration kernel of the
# engine's kind of work, and its calls are reported at the reference speed,
# on which that kernel takes REFERENCE_NS: a raw time t in a round whose
# kernel samples have median c is reported as t * REFERENCE_NS / c.
REFERENCE_NS = 80_000
CALIBRATIONS = 50  # kernel samples per round, spread over its timed pass
_CAL_BLOCK = np.ones(64, np.float32)
_CAL_OUT = np.empty(64, np.float32)


def calibration_ns():
    """One timed run of the calibration kernel: a Python loop of small
    ufunc calls on an L1-resident block, as the block executor makes."""
    a, out = _CAL_BLOCK, _CAL_OUT
    t0 = time.perf_counter_ns()
    for _ in range(50):
        np.multiply(a, 1.5, out=out)
        np.add(out, a, out=out)
    return time.perf_counter_ns() - t0


class Record:
    """The engine and NumPy time of each call in each round, NaN where the
    call failed, with each round's speed scale; and the failures. Times
    are kept in one array per round, so the record's memory hardly shows
    in peak RSS."""

    def __init__(self):
        self.calls = []
        self.engine_ns, self.numpy_ns, self.scales = [], [], []  # per round
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.worst_err_ratio = 0.0

    def fail(self, call, why):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{call.kind}/{call.dtype}/n={call.n}: {why}")

    def medians(self, scaled=True):
        """Per round position, the median engine and NumPy ns over the
        rounds, at the reference speed if `scaled`; NaN for a call that
        failed in any round."""
        k = np.asarray(self.scales)[:, None] if scaled else 1.0
        return (np.median(np.asarray(self.engine_ns) * k, axis=0),
                np.median(np.asarray(self.numpy_ns) * k, axis=0))


class Runner:
    """Runs rounds of calls; `engine` picks how each call is made (the
    public entry point, or a traced replay of it)."""

    def __init__(self, calls):
        self.calls = calls
        # round position -> bits of its first reduction result that passed
        # the error-bound check
        self._checked = {}

    def round(self, record, engine=None):
        record.rounds += 1
        record.calls = self.calls
        engine_ns = np.full(len(self.calls), np.nan)
        numpy_ns = np.full(len(self.calls), np.nan)
        done = []  # (engine ns or None if it raised, result or exception)
        every = max(1, len(self.calls) // CALIBRATIONS)
        cal = []
        for pos, call in enumerate(self.calls):
            try:
                t0 = time.perf_counter_ns()
                result = call.run(call.stepped) if engine is None else engine(call, pos)
                done.append((time.perf_counter_ns() - t0, result))
            except Exception as exc:  # a raising call is a failed call
                done.append((None, exc))
            if pos % every == 0:
                cal.append(calibration_ns())
        record.scales.append(REFERENCE_NS / statistics.median(cal) if cal else 1.0)
        record.engine_ns.append(engine_ns)
        record.numpy_ns.append(numpy_ns)
        for pos, call in enumerate(self.calls):
            record.attempted += 1
            ns, result = done[pos]
            try:
                if ns is None:
                    raise result
                t0 = time.perf_counter_ns()
                call.reference()
                t1 = time.perf_counter_ns()
                ok, ratio = self.verify(call, pos, result)
            except Exception as exc:
                record.fail(call, repr(exc))
                continue
            finally:
                call.restore()
            record.worst_err_ratio = max(record.worst_err_ratio, ratio)
            if not ok:
                record.fail(call, "wrong result")
            else:
                engine_ns[pos], numpy_ns[pos] = ns, t1 - t0

    def verify(self, call, pos, result):
        if call.op not in REDUCTIONS:
            # A stepped assign equals the block executor by way of the
            # NumPy expression, which both must reproduce bit for bit.
            return call.check(result)
        bits = np.asarray(result).tobytes()
        checked = self._checked.get(pos)
        if checked is None:
            ok, ratio = call.check(result)
            if ok:
                self._checked[pos] = bits
        else:
            # A repeated reduction of the same input must give the checked
            # first result bit for bit.
            ok, ratio = bits == checked, 0.0
        if call.stepped and np.asarray(call.run(False)).tobytes() != bits:
            ok = False  # stepped and block executors disagree
        return ok, ratio


def summarize(record, scaled=True):
    """End-to-end metrics of one measurement phase (setup_s and peak_rss_mb
    are added by the caller), at the reference speed if `scaled`.

    A call's time is the median of its repeats, one per round: the round's
    speed scale removes the host's drift, and the median the bursts that
    are left, whatever the number of rounds. Failed calls are left out.
    """
    engine, ref = record.medians(scaled)
    ok = np.isfinite(engine)
    ns, ref = engine[ok], ref[ok]
    calls = [c for c, good in zip(record.calls, ok) if good]
    reduce = np.array([c.op in REDUCTIONS for c in calls], bool)
    nbytes = np.array([c.nbytes for c in calls], float)
    q = statistics.quantiles(ns.tolist(), n=10) if len(ns) > 1 else ns.tolist() * 9
    return {
        "calls_per_s": len(ns) / (ns.sum() * 1e-9),
        # bytes per ns = GB/s
        "reduce_gbytes_per_s": nbytes[reduce].sum() / ns[reduce].sum(),
        "update_gbytes_per_s": nbytes[~reduce].sum() / ns[~reduce].sum(),
        "call_p50_us": float(np.median(ns)) * 1e-3,
        "call_p90_us": q[8] * 1e-3,
        "roofline_frac": ref.sum() / ns.sum(),
        "fail_frac": record.failed / record.attempted,
    }

"""Harness-level tests: a call whose output is wrong counts as failed.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import numpy as np
import pytest

import harness


def _calls(kinds, dtype="f32", n=300):
    rng = np.random.default_rng(0)
    vs = harness.VectorSet(dtype, n, rng, outs=len(kinds))
    return [
        harness.Call(kind, vs, out, rng, stepped=(i % 2 == 1))
        for i, (kind, out) in enumerate(zip(kinds, vs.outs))
    ]


def _rounds(calls, rounds=1):
    record = harness.Record()
    runner = harness.Runner(calls)
    for _ in range(rounds):
        runner.round(record)
    return record


def _wrap(call, after):
    run = call.run
    call.run = lambda stepped: after(run(stepped))


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_correct_calls_pass(dtype):
    record = _rounds(_calls(harness.KINDS, dtype), rounds=2)
    assert record.attempted == 2 * len(harness.KINDS)
    assert record.failed == 0, record.errors
    assert 0 < record.worst_err_ratio < 1


def test_perturbed_reduction_counts_as_failed():
    calls = _calls(("dot", "sum", "norm2"))
    for call in calls:
        _wrap(call, lambda value: value + 1)
    record = _rounds(calls)
    assert record.failed == 3


def test_one_ulp_off_elementwise_output_counts_as_failed():
    calls = _calls(("scal", "axpy", "scaled_copy", "t3"))
    for call in calls:
        out = call.out

        def nudge(_, out=out):
            out.write_element(7, np.nextafter(out.read_element(7), out.dtype.type(np.inf)))

        _wrap(call, nudge)
    record = _rounds(calls)
    assert record.failed == 4


def test_raising_call_counts_as_failed():
    (call,) = _calls(("dot",))

    def boom(_):
        raise RuntimeError("boom")

    _wrap(call, boom)
    record = _rounds([call])
    assert (record.attempted, record.failed) == (1, 1)
    assert "boom" in record.errors[0]


def test_reduction_that_changes_between_repeats_counts_as_failed():
    (call,) = _calls(("sum",))
    repeats = iter([lambda v: v, lambda v: np.nextafter(v, v.dtype.type(np.inf))])
    _wrap(call, lambda value: next(repeats)(value))
    record = _rounds([call], rounds=2)
    assert (record.attempted, record.failed) == (2, 1)

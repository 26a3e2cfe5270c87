import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from lanevec.bench import (
    _KERNELS,
    CSV_HEADER,
    OPS,
    VARIANTS,
    BenchRecord,
    _make_data,
    bytes_moved,
    default_sizes,
    emit_csv,
    flop_count,
    main,
    measure,
    run_sweep,
)


def read_csv(text):
    """The records in emit_csv's text, each field converted back from str."""
    header, *rows = csv.reader(io.StringIO(text))
    assert ",".join(header) == CSV_HEADER
    return [BenchRecord(op, variant, typ, int(n), int(reps), *map(float, times))
            for op, variant, typ, n, reps, *times in rows]


def test_default_sizes_cover_powers_of_two_with_neighbors():
    sizes = default_sizes()
    assert sizes == sorted(set(sizes))
    assert sizes[0] == 2**6 - 1
    assert sizes[-1] == 2**22 + 1
    for p in range(6, 23):
        for n in (2**p - 1, 2**p, 2**p + 1):
            assert n in sizes
    assert len(sizes) == 17 * 3


def test_flop_and_byte_accounting():
    n = 1000
    assert flop_count("dot", n) == 2 * n
    assert flop_count("scal", n) == n
    assert flop_count("axpy", n) == 2 * n
    assert flop_count("scaled_copy", n) == n
    assert flop_count("sum", n) == n
    assert flop_count("norm2", n) == 2 * n
    assert bytes_moved("dot", n, "f32") == 2 * n * 4
    assert bytes_moved("scal", n, "f64") == 2 * n * 8
    assert bytes_moved("axpy", n, "f32") == 3 * n * 4
    assert bytes_moved("scaled_copy", n, "f64") == 2 * n * 8
    assert bytes_moved("sum", n, "f32") == n * 4
    assert bytes_moved("norm2", n, "f64") == n * 8


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("variant", ["engine", "naive", "engine-U2"])
def test_measure_produces_consistent_records(op, variant):
    [rec] = measure(op, [variant], 65, "f32", reps=3, warmup=1, seed=1)
    assert rec.op == op and rec.variant == variant
    assert rec.type == "f32" and rec.n == 65 and rec.reps == 3
    assert rec.best_s > 0
    assert rec.median_s >= rec.best_s
    assert rec.gflops == flop_count(op, 65) / rec.best_s / 1e9
    assert rec.gbytes == bytes_moved(op, 65, "f32") / rec.best_s / 1e9


def test_run_sweep_record_count_is_the_product():
    records = run_sweep(["dot"], ["engine", "naive"], [16, 64], reps=2, warmup=0)
    assert len(records) == 4
    keys = [(r.op, r.variant, r.n) for r in records]
    assert len(set(keys)) == 4


def test_run_sweep_rejects_unknown_names():
    with pytest.raises(ValueError):
        run_sweep(["dog"], ["engine"], [16], reps=1, warmup=0)
    with pytest.raises(ValueError):
        run_sweep(["dot"], ["turbo"], [16], reps=1, warmup=0)


@pytest.mark.parametrize("op, variants, unknown", [
    ("dot", ["turbo"], "turbo"),
    ("dot", ["engine", "turbo"], "turbo"),
    ("dog", ["engine"], "dog"),
])
def test_measure_rejects_unknown_names_before_building_data(op, variants, unknown,
                                                             monkeypatch):
    import lanevec.bench as bench

    built = []
    monkeypatch.setattr(bench, "_make_data", lambda *args: built.append(args))
    with pytest.raises(ValueError, match=repr(unknown)):
        measure(op, variants, 8, "f32", 1, 0, 0)
    assert built == []


@pytest.mark.parametrize(
    "kwargs",
    [
        {"warmup": -1},
        {"sizes": [16, -4]},
        {"reps": 0},
        {"ops": []},
        {"variants": []},
        {"sizes": []},
        {"reps": 2.5},
        {"warmup": 1.5},
        {"sizes": [16.0]},
        {"sizes": [True]},
    ],
)
def test_run_sweep_checks_inputs_before_measuring(kwargs, monkeypatch):
    import lanevec.bench as bench

    calls = []
    monkeypatch.setattr(bench, "measure", lambda *args: calls.append(args))
    sweep = {"ops": ["dot", "scal"], "variants": ["engine"], "sizes": [16],
             "reps": 1, "warmup": 0, **kwargs}
    with pytest.raises(ValueError):
        run_sweep(**sweep)
    assert calls == []


@pytest.mark.parametrize("op", OPS)
def test_all_variants_run(op):
    records = run_sweep([op], list(VARIANTS), [33], reps=1, warmup=0)
    assert [r.variant for r in records] == list(VARIANTS)


def test_seeded_data_is_reproducible():
    [a] = measure("dot", ["engine"], 64, "f32", reps=1, warmup=0, seed=9)
    [b] = measure("dot", ["engine"], 64, "f32", reps=1, warmup=0, seed=9)
    assert (a.op, a.variant, a.n) == (b.op, b.variant, b.n)  # timing differs, data same
    from lanevec.bench import _make_data

    x1, y1, _ = _make_data("dot", 64, np.dtype(np.float32), 9)
    x2, y2, _ = _make_data("dot", 64, np.dtype(np.float32), 9)
    assert x1.to_array().tobytes() == x2.to_array().tobytes()
    assert y1.to_array().tobytes() == y2.to_array().tobytes()
    x3, _, _ = _make_data("dot", 64, np.dtype(np.float32), 10)
    assert x1.to_array().tobytes() != x3.to_array().tobytes()


def test_emit_csv_and_parse_round_trip(tmp_path):
    records = run_sweep(["scal"], ["engine"], [16, 31], reps=2, warmup=0)
    path = tmp_path / "out.csv"
    emit_csv(records, str(path))
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    parsed = read_csv(text)
    assert parsed == records


def test_emit_csv_header_only_for_no_records(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], str(path))
    assert path.read_text() == CSV_HEADER + "\n"


def test_emit_csv_to_stdout(capsys):
    rec = BenchRecord("dot", "engine", "f32", 8, 1, 1e-6, 2e-6, 0.016, 0.064)
    emit_csv([rec], "-")
    out = capsys.readouterr().out.splitlines()
    assert out[0] == CSV_HEADER
    assert out[1].startswith("dot,engine,f32,8,1,")


def test_emit_csv_round_trips_numpy_scalars(tmp_path):
    rec = BenchRecord("dot", "engine", "f32", np.int64(8), np.int64(1),
                      np.float64(1e-6), np.float64(2e-6), np.float64(0.016),
                      np.float64(0.064))
    path = tmp_path / "numpy.csv"
    emit_csv([rec], str(path))
    assert read_csv(path.read_text()) == [rec]


def test_cli_writes_csv(tmp_path):
    path = tmp_path / "cli.csv"
    code = main(
        [
            "--op", "dot", "--variants", "engine,naive", "--sizes", "8,16,31",
            "--reps", "2", "--warmup", "0", "--csv", str(path),
        ]
    )
    assert code == 0
    records = read_csv(path.read_text())
    assert len(records) == 6
    for r in records:
        assert math.isclose(r.gflops, flop_count(r.op, r.n) / r.best_s / 1e9,
                            rel_tol=1e-12)

    # --op takes a comma list, as README documents
    code = main(
        [
            "--op", "dot,scal", "--variants", "engine", "--sizes", "8,16",
            "--reps", "1", "--warmup", "0", "--csv", str(path),
        ]
    )
    assert code == 0
    records = read_csv(path.read_text())
    assert [(r.op, r.n) for r in records] == [
        ("dot", 8), ("dot", 16), ("scal", 8), ("scal", 16),
    ]


def test_cli_writes_json(tmp_path):
    path = tmp_path / "cli.json"
    csv = tmp_path / "cli.csv"
    argv = [
        "--op", "dot,sum", "--type", "f32,f64", "--variants", "engine,numpy",
        "--sizes", "8,31", "--reps", "2", "--warmup", "0", "--csv", str(csv),
        "--json", str(path),
    ]
    assert main(argv) == 0
    document = json.loads(path.read_text())
    assert document["command"] == ["lanevec-bench", *argv]
    host = document["host"]
    for key in ("python", "numpy", "cpu_count", "affinity", "cpu_features", "caches",
                "git_head", "git_dirty"):
        assert key in host, key
    assert host["numpy"] == np.__version__
    rows = document["records"]
    # the JSON holds the CSV's records, each with its time relative to numpy
    assert [BenchRecord(**{k: v for k, v in r.items() if k != "vs_numpy"}) for r in rows] \
        == read_csv(csv.read_text())
    assert len(rows) == 2 * 2 * 2 * 2
    numpy_best = {(r["op"], r["type"], r["n"]): r["best_s"] for r in rows
                  if r["variant"] == "numpy"}
    for r in rows:
        assert math.isclose(r["gflops"], flop_count(r["op"], r["n"]) / r["best_s"] / 1e9,
                            rel_tol=1e-12)
        base = numpy_best[(r["op"], r["type"], r["n"])]
        assert r["vs_numpy"] == r["best_s"] / base
        if r["variant"] == "numpy":
            assert r["vs_numpy"] == 1.0

    # with no numpy record there is nothing to be relative to
    assert main(["--op", "scal", "--variants", "engine", "--sizes", "8", "--reps", "1",
                 "--warmup", "0", "--csv", str(csv), "--json", str(path)]) == 0
    assert [r["vs_numpy"] for r in json.loads(path.read_text())["records"]] == [None]


@pytest.mark.parametrize("op", OPS)
def test_numpy_variant_does_the_op(op):
    """Each kernel's NumPy call computes what the engine call does."""
    n = 37
    kernel = _KERNELS[op]
    alpha = np.float64(1.25)
    x, y, out = _make_data(op, n, np.dtype(np.float64), 3)
    e_x, e_y, e_out = _make_data(op, n, np.dtype(np.float64), 3)
    arrays = {"alpha": alpha, "x": x.write_window(0, n),
              "y": None if y is None else y.write_window(0, n),
              "out": None if out is None else out.write_window(0, n)}
    got = kernel.numpy(*(arrays[a] for a in kernel.args))()
    vectors = {"alpha": alpha, "x": e_x, "y": e_y, "out": e_out}
    want = kernel.engine(*(vectors[a] for a in kernel.args))
    if want is None:  # the op writes its last vector argument
        written = kernel.args[-1]
        got = arrays[written]
        want = vectors[written].to_array()
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_cli_stdout_default(capsys):
    assert main(["--op", "scal", "--sizes", "8", "--reps", "1", "--warmup", "0",
                 "--variants", "engine"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == CSV_HEADER
    assert len(out) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["--op", "dog"],
        ["--op", "dot,dog"],
        ["--op", ","],
        ["--variants", "engine,turbo"],
        ["--variants", ""],
        ["--variants", ","],
        ["--sizes", "ten"],
        ["--sizes", "-4"],
        ["--reps", "0"],
        ["--type", "f16"],
        ["--type", "f32,f16"],
        ["--type", ","],
        ["--cache-sizes", "1024"],
    ],
)
def test_cli_rejects_bad_usage_with_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--warmup", "0"])
    assert exc.value.code == 2


def test_cli_unwritable_csv_exits_1(tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir" / "x.csv"
    code = main(["--op", "dot", "--sizes", "8", "--reps", "1", "--warmup", "0",
                 "--variants", "engine", "--csv", str(missing_dir)])
    assert code == 1
    assert "cannot write CSV" in capsys.readouterr().err


def test_cli_unwritable_json_exits_1(tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir" / "x.json"
    code = main(["--op", "dot", "--sizes", "8", "--reps", "1", "--warmup", "0",
                 "--variants", "engine", "--csv", str(tmp_path / "x.csv"),
                 "--json", str(missing_dir)])
    assert code == 1
    assert "cannot write JSON" in capsys.readouterr().err


def test_variants_of_a_point_are_timed_interleaved(monkeypatch):
    """Each rep calls every variant of one op and size once, the order
    reversed on every other rep, before the sweep moves to the next size;
    the records still come by variant, then size."""
    import lanevec.bench as bench

    calls = []

    def spy(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return call

    kernel = bench._KERNELS["dot"]
    monkeypatch.setitem(bench._KERNELS, "dot", dataclasses.replace(
        kernel, engine=spy("engine", kernel.engine), naive=spy("naive", kernel.naive),
        numpy=lambda x, y: spy("numpy", kernel.numpy(x, y))))
    variants = ["engine", "naive", "numpy"]
    records = run_sweep(["dot"], variants, [8, 64], reps=3, warmup=1)
    one_size = (variants + variants[::-1]) * 2  # the warm-up rep and three timed
    assert calls == one_size * 2
    assert [(r.variant, r.n) for r in records] == [(v, n) for v in variants for n in (8, 64)]


@pytest.mark.parametrize("op", ["scal", "axpy"])
def test_inplace_ops_are_restored_between_reps(op, monkeypatch):
    # without restoration the mutated operand would compound across reps
    import lanevec.bench as bench

    seen = []
    kernel = bench._KERNELS[op]
    updated = kernel.args.index(kernel.updates)

    def engine(*args, **options):
        seen.append(args[updated].to_array().tobytes())
        return kernel.engine(*args, **options)

    monkeypatch.setitem(bench._KERNELS, op, dataclasses.replace(kernel, engine=engine))
    # numpy updates the same operand between the two engine calls of a rep
    measure(op, ["engine", "numpy", "engine-U2"], 32, "f32", reps=5, warmup=2, seed=3)
    assert len(seen) == 2 * 7
    assert len(set(seen)) == 1

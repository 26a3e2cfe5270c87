import math

import numpy as np
import pytest

from lanevec.bench import (
    CSV_HEADER,
    OPS,
    VARIANTS,
    BenchRecord,
    bytes_moved,
    default_sizes,
    emit_csv,
    flop_count,
    main,
    measure,
    parse_csv,
    run_sweep,
)


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
    assert bytes_moved("dot", n, "f32") == 2 * n * 4
    assert bytes_moved("scal", n, "f64") == 2 * n * 8
    assert bytes_moved("axpy", n, "f32") == 3 * n * 4
    assert bytes_moved("scaled_copy", n, "f64") == 2 * n * 8


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("variant", ["engine", "naive", "engine-U2"])
def test_measure_produces_consistent_records(op, variant):
    rec = measure(op, variant, 65, "f32", reps=3, warmup=1, seed=1)
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


def test_all_variants_run():
    records = run_sweep(["axpy"], list(VARIANTS), [33], reps=1, warmup=0)
    assert [r.variant for r in records] == list(VARIANTS)


def test_seeded_data_is_reproducible():
    a = measure("dot", "engine", 64, "f32", reps=1, warmup=0, seed=9)
    b = measure("dot", "engine", 64, "f32", reps=1, warmup=0, seed=9)
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
    parsed = parse_csv(text)
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


def test_parse_csv_rejects_bad_header():
    with pytest.raises(ValueError):
        parse_csv("nope\n1,2,3\n")


def test_cli_writes_csv(tmp_path):
    path = tmp_path / "cli.csv"
    code = main(
        [
            "--op", "dot", "--variants", "engine,naive", "--sizes", "8,16,31",
            "--reps", "2", "--warmup", "0", "--csv", str(path),
        ]
    )
    assert code == 0
    records = parse_csv(path.read_text())
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
    records = parse_csv(path.read_text())
    assert [(r.op, r.n) for r in records] == [
        ("dot", 8), ("dot", 16), ("scal", 8), ("scal", 16),
    ]


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


def test_cli_cache_sizes_sidecar(tmp_path):
    path = tmp_path / "swept.csv"
    code = main(["--op", "dot", "--sizes", "8", "--reps", "1", "--warmup", "0",
                 "--variants", "engine", "--csv", str(path),
                 "--cache-sizes", "32768,262144,6291456"])
    assert code == 0
    meta = (tmp_path / "swept.csv.meta").read_text()
    assert meta == "cache_sizes_bytes,32768,262144,6291456\n"


def test_cli_cache_sizes_ignored_on_stdout(capsys):
    code = main(["--op", "dot", "--sizes", "8", "--reps", "1", "--warmup", "0",
                 "--variants", "engine", "--cache-sizes", "1024"])
    assert code == 0
    assert "ignored" in capsys.readouterr().err


@pytest.mark.parametrize("op", ["scal", "axpy"])
def test_inplace_ops_are_restored_between_reps(op, monkeypatch):
    # without restoration the mutated operand would compound across reps
    import lanevec.bench as bench

    seen = []
    real = bench._engine_call

    def spying(op_, x, y, out, alpha, options):
        call = real(op_, x, y, out, alpha, options)
        mutated = x if op_ == "scal" else y

        def wrapped():
            seen.append(mutated.to_array().tobytes())
            call()

        return wrapped

    monkeypatch.setattr(bench, "_engine_call", spying)
    measure(op, "engine", 32, "f32", reps=5, warmup=2, seed=3)
    assert len(seen) == 7
    assert len(set(seen)) == 1

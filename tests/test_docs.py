"""The README's code runs, prints what the README says it prints, and names
only what the package has."""

import contextlib
import importlib
import io
import re
import shlex
from pathlib import Path

import lanevec as lv
from lanevec import bench

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    assert out.getvalue().splitlines() == ["[12. 24. 36. 48.]", "300.0"]


def test_readme_names_only_what_exists():
    """Every `lv.<name>` and every `lanevec.<module>.<name>` that README.md
    mentions is an attribute the package has."""
    text = README.read_text()
    names = set(re.findall(r"\blv\.(\w+)", text))
    dotted = set(re.findall(r"\blanevec\.(\w+)\.(\w+)", text))
    assert names and dotted
    missing = [f"lv.{name}" for name in sorted(names) if not hasattr(lv, name)]
    missing += [f"lanevec.{module}.{name}" for module, name in sorted(dotted)
                if not hasattr(importlib.import_module(f"lanevec.{module}"), name)]
    assert not missing, missing


def test_readme_bench_command_runs(tmp_path):
    text = README.read_text()
    commands = re.findall(r"^lanevec-bench (.*)$", text, re.M)
    assert len(commands) == 1
    argv = shlex.split(commands[0])
    csv = tmp_path / "bench.csv"
    argv[argv.index("--csv") + 1] = str(csv)
    assert bench.main(argv) == 0
    header = re.search(r"CSV with the header\n\n```\n(.*)\n```", text).group(1)
    lines = csv.read_text().splitlines()
    assert lines[0] == header
    # one row per variant at the one size the command names
    assert [line.split(",")[:2] for line in lines[1:]] == [["dot", "engine"], ["dot", "naive"]]


def test_readme_bench_flags_list_every_op_and_variant():
    """README's `--op` and `--variants` lists are lanevec-bench's OPS and
    VARIANTS, in order, so a new variant cannot go undocumented."""
    text = README.read_text()
    listed = {flag: re.findall(r"`([\w-]+)`", re.search(rf"`--{flag}` \((.*?)\)", text, re.S)[1])
              for flag in ("op", "variants")}
    assert listed["op"] == [*bench.OPS, "all"]
    assert listed["variants"] == list(bench.VARIANTS)

"""The package's imports run one way: each module imports only modules
that come before it in LAYERS, so the node layer never calls back into
the engine that runs it. The benchmark in perfbench/ reads only names
the package has."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lanevec"

LAYERS = ("lanes", "expressions", "engine", "vectors", "oracle", "ops", "bench", "__init__")


def _relative_imports(path):
    """The package modules that the module at `path` imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:  # from . import name
                found.update(alias.name for alias in node.names)
    return found


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in PACKAGE.glob("*.py")) == sorted(LAYERS)


def test_modules_import_only_earlier_layers():
    for rank, name in enumerate(LAYERS):
        later = _relative_imports(PACKAGE / f"{name}.py") - set(LAYERS[:rank])
        assert not later, f"{name} imports {sorted(later)}, which come after it"


def test_perfbench_reads_only_names_the_package_has():
    """perfbench/run.py imports perfbench/layers.py on every run, and no
    test imports it, so a name that the package lost would break every
    benchmark run while the tests pass: every name a perfbench module
    imports from lanevec, and every attribute it reads from an imported
    lanevec module, must exist."""
    missing, readers = [], set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        modules = {}  # local name -> the lanevec module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "lanevec":
                        bound = alias.name if alias.asname else "lanevec"
                        modules[alias.asname or "lanevec"] = bound
            elif isinstance(node, ast.ImportFrom) and not node.level:
                if (node.module or "").split(".")[0] == "lanevec":
                    module = importlib.import_module(node.module)
                    missing += [f"{path.name}: from {node.module} import {alias.name}"
                                for alias in node.names if not hasattr(module, alias.name)]
        if modules:
            readers.add(path.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                if not hasattr(importlib.import_module(modules[node.value.id]), node.attr):
                    missing.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    assert {"harness.py", "layers.py", "run.py"} <= readers
    assert not missing, missing

"""The package's imports run one way: each module imports only modules
that come before it in LAYERS, so the node layer never calls back into
the engine that runs it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lanevec"

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

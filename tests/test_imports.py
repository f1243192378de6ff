"""The package's import boundaries: only the engine runs the kernels, and the
attack layers reach models only through losses, oracles and the zoo."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ensattack"


def _module_name(path):
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path):
    """Every module ``path`` imports, at any depth of its code, as dotted
    names; ``from m import name`` counts as importing ``m.name`` too, since
    the name may be a submodule."""
    module = _module_name(path)
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            parts = package.split(".")
            base = parts[:len(parts) - node.level + 1] if node.level else []
            source = ".".join(base + ([node.module] if node.module else []))
            found.add(source)
            found.update(f"{source}.{alias.name}" for alias in node.names)
    return found


def _within(name, target):
    return name == target or name.startswith(target + ".")


def _importers(target):
    """Modules outside ``target`` itself that import it or a part of it."""
    return sorted(_module_name(path) for path in PACKAGE.rglob("*.py")
                  if not _within(_module_name(path), target)
                  and any(_within(name, target) for name in _imports(path)))


def test_import_resolution_sees_relative_and_lazy_imports():
    assert {"ensattack.kernels", "ensattack.errors.ShapeError"} <= _imports(PACKAGE / "nn.py")
    # cli imports its verbs' modules inside the functions
    assert "ensattack.harness" in _imports(PACKAGE / "cli.py")
    assert "ensattack.kernels.reference" in _imports(PACKAGE / "kernels" / "__init__.py")


def test_only_nn_imports_kernels():
    assert _importers("ensattack.kernels") == ["ensattack.nn"]


def test_attack_layers_import_neither_nn_nor_kernels():
    for layer in ("search", "harness", "cli", "pm"):
        imported = _imports(PACKAGE / f"{layer}.py")
        assert not any(_within(name, target) for name in imported
                       for target in ("ensattack.nn", "ensattack.kernels")), layer

"""The package's import boundaries: only the engine runs the kernels, the
attack layers reach models only through losses, oracles and the zoo, and a
run against an in-process victim loads no HTTP or OpenSSL code."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ensattack"


def _module_name(path):
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _parse(path):
    return ast.parse(path.read_text(), str(path))


def _imports(path, tree=None):
    """Every module ``path`` imports, at any depth of its code or of
    ``tree``, a part of that code, as dotted names; ``from m import name``
    counts as importing ``m.name`` too, since the name may be a submodule."""
    module = _module_name(path)
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    found = set()
    for node in ast.walk(_parse(path) if tree is None else tree):
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


def test_no_module_imports_hashlib():
    # hashlib loads OpenSSL's libcrypto; the query log's digest uses zlib
    assert _importers("hashlib") == []


def test_only_the_client_and_the_server_import_http():
    assert _importers("http") == ["ensattack.client", "ensattack.server"]


def test_only_harness_connect_imports_the_client():
    # so a run against an in-process victim never loads http.client or ssl
    assert _importers("ensattack.client") == ["ensattack.harness"]
    path = PACKAGE / "harness.py"
    tree = _parse(path)
    [connect] = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "connect"]
    assert "ensattack.client" in _imports(path, connect)
    tree.body.remove(connect)
    assert not any(_within(name, "ensattack.client") for name in _imports(path, tree))


# builds and trains a tiny zoo, attacks the first test image the victim
# classifies correctly, and prints which of NETWORK_MODULES got loaded
IN_PROCESS_RUN = """
import json, os, sys
import ensattack.cli, ensattack.harness, ensattack.zoo
from ensattack import harness, nn, zoo

zoo_dir, out_dir, watched = sys.argv[1], sys.argv[2], sys.argv[3:]
zoo.build_zoo(zoo_dir, num_classes=3, per_class=6, side=8, seed=2)
zoo.train_zoo(zoo_dir)
_, dataset, models = zoo.load_zoo(zoo_dir)
test = dataset.test_split()
first = next(i for i, (x, y) in enumerate(zip(test.images, test.labels))
             if int(nn.forward(models["victim-mlp"], x).argmax()) == int(y))
summary = harness.run_experiment(harness.parse_experiment_config({
    "dataset": os.path.join(zoo_dir, "dataset.bds"),
    "zoo_manifest": os.path.join(zoo_dir, "manifest.json"),
    "surrogate_ids": ["cnn-a", "mlp-a"], "victim": {"model_id": "victim-mlp"},
    "goal_policy": {"mode": "untargeted"}, "output_dir": out_dir,
    "search": {"max_queries": 4}, "pm": {"steps": 2}, "max_images": first + 1}))
print(json.dumps({"attempted": summary.attempted,
                  "loaded": [m for m in watched if m in sys.modules]}))
"""
NETWORK_MODULES = ("ssl", "_ssl", "hashlib", "_hashlib", "http.client", "email")


def test_an_in_process_run_loads_no_http_or_openssl_code(tmp_path):
    # a fresh interpreter, since this one has loaded the client already
    out = subprocess.run(
        [sys.executable, "-c", IN_PROCESS_RUN, str(tmp_path / "zoo"), str(tmp_path / "out"),
         *NETWORK_MODULES],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(out.stdout) == {"attempted": 1, "loaded": []}

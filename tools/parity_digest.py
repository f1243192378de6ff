"""Print sha256 digests of everything the program writes, to show that a
change leaves its outputs byte for byte as they were.

Run from a checkout, with no options:

    python3 tools/parity_digest.py

The package is imported from the checkout's own ``src``, so running the
script in two checkouts compares their code. It prints one line per part
and a last line over all parts:

- ``zoo-7`` and ``zoo-11``: every file of ``zoo.build_zoo`` at its
  defaults and that seed, after ``zoo.train_zoo``;
- ``zoo-odd``: every file of an untrained ``zoo.build_zoo`` away from the
  defaults (3 classes, 3 images per class, side 9, seed 5), so the
  dataset's synthesis is covered at sizes no other part uses;
- ``experiment-local``: every artifact of the README experiment
  (victim-cnn, six surrogates, targeted ``easiest``, 50 queries, linf
  16/255) on the seed-7 zoo, the victim in-process;
- ``experiment-served``: the same experiment against victim-cnn served by
  ``server.serve`` on a loopback port.

Each part's digest covers the relative path and the bytes of each file,
in sorted path order. Everything is written to a temporary directory that
is removed at the end.
"""

import hashlib
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from ensattack import harness, server, zoo  # noqa: E402

SURROGATES = ["cnn-a", "cnn-b", "cnn-c", "mlp-a", "mlp-b", "mlp-c"]


def tree_digest(root: str) -> str:
    h = hashlib.sha256()
    paths = sorted(os.path.relpath(os.path.join(d, f), root)
                   for d, _, files in os.walk(root) for f in files)
    for rel in paths:
        with open(os.path.join(root, rel), "rb") as fh:
            data = fh.read()
        h.update(rel.replace(os.sep, "/").encode("utf-8") + b"\0")
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


def readme_config(zoo_dir: str, victim: dict, out_dir: str) -> dict:
    """The README experiment's JSON config, on the zoo in ``zoo_dir``."""
    return {
        "dataset": os.path.join(zoo_dir, "dataset.bds"),
        "zoo_manifest": os.path.join(zoo_dir, "manifest.json"),
        "surrogate_ids": SURROGATES,
        "victim": victim,
        "goal_policy": {"mode": "targeted", "policy": "easiest"},
        "output_dir": out_dir,
        "search": {"max_queries": 50},
        "pm": {"steps": 10, "budget": {"norm": "linf", "eps": 16 / 255}},
        "seed": 7,
    }


def run_readme_experiment(zoo_dir: str, victim: dict, out_dir: str):
    return harness.run_experiment(harness.parse_experiment_config(
        readme_config(zoo_dir, victim, out_dir)))


def main() -> None:
    parts = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in (7, 11):
            zoo_dir = os.path.join(tmp, f"zoo-{seed}")
            zoo.build_zoo(zoo_dir, seed=seed)
            zoo.train_zoo(zoo_dir)
            parts[f"zoo-{seed}"] = tree_digest(zoo_dir)
        odd_dir = os.path.join(tmp, "zoo-odd")
        zoo.build_zoo(odd_dir, num_classes=3, per_class=3, side=9, seed=5)
        parts["zoo-odd"] = tree_digest(odd_dir)
        zoo_dir = os.path.join(tmp, "zoo-7")
        out = os.path.join(tmp, "local")
        run_readme_experiment(zoo_dir, {"model_id": "victim-cnn"}, out)
        parts["experiment-local"] = tree_digest(out)
        out = os.path.join(tmp, "served")
        victim = zoo.load_model(os.path.join(zoo_dir, "models", "victim-cnn.bem"))
        with server.serve(victim) as handle:
            run_readme_experiment(zoo_dir, {"url": handle.url}, out)
        parts["experiment-served"] = tree_digest(out)
    total = hashlib.sha256()
    for name, digest in parts.items():
        print(f"{name:18s} {digest}")
        total.update(f"{name} {digest}\n".encode("ascii"))
    print(f"{'all':18s} {total.hexdigest()}")


if __name__ == "__main__":
    main()

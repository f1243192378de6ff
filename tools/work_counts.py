"""Count the work each attack pathway does: probes, PM runs, gradient
steps, surrogate passes, victim queries and conv kernel calls. Counts are
exact where wall times are not, so they show which work a change moved.

Run from a checkout, with no options:

    python3 tools/work_counts.py

It builds and trains the seed-7 zoo as ``tools/parity_digest.py`` does,
then counts two pathways against victim-cnn in process:

- ``experiment``: the README experiment (six surrogates, targeted
  ``easiest``, 50 queries, linf 16/255, T = 10), screening included;
- ``whitebox``: ``search.whitebox_weight_attack`` with the same settings on
  the first three test images the victim classifies correctly, each with
  its ``easiest`` target.

Each count is taken by wrapping the module attribute the program calls at
run time, as the benchmark's traced run does, so the package is not
edited. A column counts, per pathway:

- ``probes``: calls of a probe that ``search.prober`` made;
- ``pm_runs``: ``pm.pm_run`` calls, the runs the probe memo did not answer;
- ``grad_steps``: ``pm.ensemble_input_gradient`` calls;
- ``sur_fwd`` and ``sur_bwd``: ``nn._forward_saved`` and ``nn.backward``
  calls on a surrogate;
- ``queries``: victim queries (``oracle.LocalOracle._predict`` calls);
- ``conv_fwd``, ``conv_gin`` and ``conv_gpar``: calls of the conv kernels'
  forward, input-gradient and parameter-gradient forms, single-sample and
  batch forms together.

A last line gives the experiment's screened images and its ``q_used``
total, whose sum is its query count. The counts depend on the NumPy
build, as the digests do.
"""

import os
import sys
import tempfile
from collections import Counter
from contextlib import contextmanager

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from parity_digest import SURROGATES, readme_config, run_readme_experiment  # noqa: E402

from ensattack import harness, kernels, nn, oracle, pm, search, zoo  # noqa: E402
from ensattack.losses import AttackGoal  # noqa: E402

VICTIM = "victim-cnn"
WHITEBOX_IMAGES = 3
COLUMNS = ("probes", "pm_runs", "grad_steps", "sur_fwd", "sur_bwd", "queries",
           "conv_fwd", "conv_gin", "conv_gpar")
_KERNELS = {"conv2d_forward": "conv_fwd", "conv2d_grad_input": "conv_gin",
            "conv2d_grad_params": "conv_gpar"}


@contextmanager
def counting(surrogate_ids):
    """A Counter of the work done inside the block, keyed by COLUMNS; every
    wrapped attribute is put back when the block ends."""
    counts = Counter({c: 0 for c in COLUMNS})
    undo = []

    def patch(owner, name, make):
        old = getattr(owner, name)
        undo.append((owner, name, old))
        setattr(owner, name, make(old))

    def tally(column, fn):
        def counted(*args, **kwargs):
            counts[column] += 1
            return fn(*args, **kwargs)
        return counted

    def on_surrogates(column, fn):
        def counted(model, *args, **kwargs):
            counts[column] += model.model_id in surrogate_ids
            return fn(model, *args, **kwargs)
        return counted

    def counted_prober(make_probe):
        def prober(*args, **kwargs):
            return tally("probes", make_probe(*args, **kwargs))
        return prober

    try:
        patch(search, "prober", counted_prober)
        patch(pm, "pm_run", lambda fn: tally("pm_runs", fn))
        patch(pm, "ensemble_input_gradient", lambda fn: tally("grad_steps", fn))
        patch(nn, "_forward_saved", lambda fn: on_surrogates("sur_fwd", fn))
        patch(nn, "backward", lambda fn: on_surrogates("sur_bwd", fn))
        patch(oracle.LocalOracle, "_predict", lambda fn: tally("queries", fn))
        for name, column in _KERNELS.items():
            for form in (name, f"{name}_batch"):
                patch(kernels, form, lambda fn, column=column: tally(column, fn))
        yield counts
    finally:
        while undo:
            owner, name, old = undo.pop()
            setattr(owner, name, old)


def whitebox_set(test, victim, n: int = WHITEBOX_IMAGES):
    """The first ``n`` images of ``test`` that ``victim`` classifies
    correctly, each as (image, goal) with its ``easiest`` target."""
    found = []
    for x, y in zip(test.images, test.labels.tolist()):
        z = nn.forward(victim, x)
        if int(np.argmax(z)) == y:
            found.append((x, AttackGoal("targeted", harness.pick_target(z, "easiest", y))))
            if len(found) == n:
                break
    return found


def measure(zoo_dir: str, out_dir: str):
    """({pathway: Counter}, the experiment's MetricsSummary) on the zoo in
    ``zoo_dir``; the experiment writes its artifacts under ``out_dir``."""
    with counting(SURROGATES) as experiment:
        summary = run_readme_experiment(zoo_dir, {"model_id": VICTIM}, out_dir)
    raw = readme_config(zoo_dir, {"model_id": VICTIM}, out_dir)
    cfg = harness.build_search_config(raw["search"], raw["pm"])
    _, dataset, models = zoo.load_zoo(zoo_dir)
    surrogates = [models[s] for s in SURROGATES]
    images = whitebox_set(dataset.test_split(), models[VICTIM])
    with counting(SURROGATES) as whitebox:
        for x, goal in images:
            search.whitebox_weight_attack(x, goal, models[VICTIM], surrogates, cfg)
    return {"experiment": experiment, "whitebox": whitebox}, summary


def table(counts: dict, summary) -> list:
    """The lines ``main`` prints: a header, one line per pathway, and the
    experiment's screening and q_used total."""
    lines = [f"{'pathway':10s}" + "".join(f"{c:>11s}" for c in COLUMNS)]
    for pathway, c in counts.items():
        lines.append(f"{pathway:10s}" + "".join(f"{c[col]:>11d}" for col in COLUMNS))
    q_used = sum(r["q_used"] for r in summary.per_image)
    lines.append(f"experiment screened {summary.attempted + summary.skipped} images, "
                 f"q_used total {q_used}")
    return lines


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        zoo_dir = os.path.join(tmp, "zoo-7")
        zoo.build_zoo(zoo_dir, seed=7)
        zoo.train_zoo(zoo_dir)
        counts, summary = measure(zoo_dir, os.path.join(tmp, "local"))
    print("\n".join(table(counts, summary)))


if __name__ == "__main__":
    main()

"""tools/work_counts.py on a tiny zoo: the output format and the invariants
that hold on every build. Exact counts depend on the NumPy build, so none
is pinned here."""

import importlib.util
import json
import os
import re
from pathlib import Path

import pytest

from ensattack import kernels, nn, oracle, pm, search, zoo

TOOL = Path(__file__).resolve().parent.parent / "tools" / "work_counts.py"
_spec = importlib.util.spec_from_file_location("work_counts", TOOL)
work_counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(work_counts)


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("work_counts")
    zoo_dir = str(tmp / "zoo")
    zoo.build_zoo(zoo_dir, num_classes=3, per_class=6, side=8, seed=2)
    zoo.train_zoo(zoo_dir)
    out_dir = str(tmp / "run")
    counts, summary = work_counts.measure(zoo_dir, out_dir)
    return counts, summary, out_dir


def test_table_format(measured):
    counts, summary, _ = measured
    header, *rows, last = work_counts.table(counts, summary)
    assert header.split() == ["pathway", *work_counts.COLUMNS]
    assert [row.split()[0] for row in rows] == ["experiment", "whitebox"]
    for row in rows:
        assert re.fullmatch(r"\S+( +[0-9]+){%d}" % len(work_counts.COLUMNS), row)
    assert re.fullmatch(r"experiment screened [0-9]+ images, q_used total [0-9]+", last)


def test_counts_hold_the_invariants_of_every_build(measured):
    counts, summary, out_dir = measured
    steps = work_counts.readme_config("zoo", {"model_id": work_counts.VICTIM}, "out")["pm"]["steps"]
    for c in counts.values():
        assert c["grad_steps"] <= steps * c["pm_runs"]
        assert 1 <= c["pm_runs"] <= c["probes"]
        assert c["sur_fwd"] >= c["grad_steps"] and c["sur_bwd"] >= 1 and c["conv_fwd"] >= 1
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        written = json.load(fh)
    screened = written["attempted"] + written["skipped"]
    experiment = counts["experiment"]
    assert experiment["queries"] == sum(r["q_used"] for r in written["per_image"]) + screened
    assert experiment["probes"] == sum(r["q_used"] for r in written["per_image"])
    # the whitebox pathway scores each probe with one in-process query
    assert counts["whitebox"]["queries"] == counts["whitebox"]["probes"]


def test_counting_puts_every_wrapped_attribute_back():
    before = [search.prober, pm.pm_run, pm.ensemble_input_gradient, nn._forward_saved,
              nn.backward, oracle.LocalOracle._predict, kernels.conv2d_forward,
              kernels.conv2d_grad_params_batch]
    with pytest.raises(RuntimeError):
        with work_counts.counting(work_counts.SURROGATES):
            assert pm.pm_run is not before[1]
            raise RuntimeError
    assert [search.prober, pm.pm_run, pm.ensemble_input_gradient, nn._forward_saved,
            nn.backward, oracle.LocalOracle._predict, kernels.conv2d_forward,
            kernels.conv2d_grad_params_batch] == before

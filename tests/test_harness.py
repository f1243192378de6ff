import copy
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import util
from ensattack import client, harness, nn, pm, server, zoo
from ensattack.errors import ConfigError
from ensattack.prng import stream


def test_l2_budget_examples():
    assert harness.l2_budget(1000) == 1.0
    assert harness.l2_budget(1) == math.sqrt(0.001)
    assert harness.l2_budget(144) == pytest.approx(math.sqrt(0.144))
    with pytest.raises(ValueError):
        harness.l2_budget(0)


def test_pick_target_policies():
    z = np.array([0.1, 3.0, 2.0, -1.0], np.float32)
    assert harness.pick_target(z, "easiest", true_label=1) == 2
    assert harness.pick_target(z, "easiest", true_label=0) == 1
    assert harness.pick_target(z, "hardest", true_label=1) == 3
    assert harness.pick_target(z, "provided", 1, provided=3) == 3
    with pytest.raises(ConfigError):
        harness.pick_target(z, "provided", 1)
    with pytest.raises(ConfigError):
        harness.pick_target(z, "nearest", 1)
    with pytest.raises(ValueError):
        harness.pick_target(z, "random", 1)


def test_pick_target_random_seeded_and_never_true_label():
    z = np.zeros(5, np.float32)
    draws = [harness.pick_target(z, "random", 2, rng=stream(s, "t")) for s in range(40)]
    assert all(d != 2 and 0 <= d < 5 for d in draws)
    assert len(set(draws)) == 4
    a = harness.pick_target(z, "random", 2, rng=stream(9, "t"))
    b = harness.pick_target(z, "random", 2, rng=stream(9, "t"))
    assert a == b


def _raw_config(**over):
    raw = {
        "dataset": "d.bds",
        "zoo_manifest": "manifest.json",
        "surrogate_ids": ["cnn-a"],
        "victim": {"model_id": "victim-mlp"},
        "goal_policy": {"mode": "targeted", "policy": "easiest"},
        "output_dir": "out",
    }
    raw.update(over)
    return raw


def test_parse_experiment_config_errors():
    harness.parse_experiment_config(_raw_config())
    provided = {"mode": "targeted", "policy": "provided", "label": 3}
    assert harness.parse_experiment_config(_raw_config(goal_policy=provided)).goal_policy == provided
    with pytest.raises(ConfigError):
        harness.parse_experiment_config([1, 2])
    with pytest.raises(ConfigError):
        harness.parse_experiment_config(_raw_config(extra_key=1))
    missing = _raw_config()
    del missing["victim"]
    with pytest.raises(ConfigError):
        harness.parse_experiment_config(missing)
    with pytest.raises(ConfigError):
        harness.parse_experiment_config(_raw_config(surrogate_ids=[]))
    with pytest.raises(ConfigError):
        harness.parse_experiment_config(_raw_config(victim={"model_id": "a", "url": "b"}))
    with pytest.raises(ConfigError):
        harness.parse_experiment_config(_raw_config(goal_policy={"mode": "sideways"}))
    with pytest.raises(ConfigError):
        harness.parse_experiment_config(
            _raw_config(goal_policy={"mode": "targeted", "policy": "nearest"}))
    with pytest.raises(ConfigError):
        harness.parse_experiment_config(
            _raw_config(goal_policy={"mode": "untargeted", "policy": "easiest"}))


def test_build_search_config():
    cfg = harness.build_search_config(
        {"max_queries": 12, "order": "random"},
        {"steps": 5, "budget": {"norm": "l2", "eps": 0.9}, "loss": {"kind": "cross_entropy"}})
    assert cfg.max_queries == 12 and cfg.order == "random"
    assert cfg.pm.steps == 5 and cfg.pm.budget.norm == "l2"
    assert cfg.pm.loss.kind == "cross_entropy"
    defaults = harness.build_search_config({}, {})
    assert defaults.pm.budget.eps == 16.0 / 255.0 and defaults.max_queries == 50
    for bad_search, bad_pm in (({"max_queries": 0}, {}),
                               ({}, {"steps": -1}),
                               ({}, {"steps": 2.5}),
                               ({}, {"steps": True}),
                               ({"max_queries": 2.5}, {}),
                               ({"max_queries": True}, {}),
                               ([], {}),
                               ({}, [("steps", 2)]),
                               ({}, {"budget": {"norm": "l3", "eps": 0.1}}),
                               ({"speed": 9}, {}),
                               ({}, {"warp": 1}),
                               # json.load reads Infinity, and true is an int to Python
                               ({}, {"budget": {"norm": "linf", "eps": math.inf}}),
                               ({}, {"budget": {"norm": "l2", "eps": True}}),
                               ({}, {"budget": {"norm": "linf", "eps": 10**400}}),
                               ({}, {"steps": 10**400}),
                               ({}, {"step_size": math.inf}),
                               ({}, {"step_size": True}),
                               ({"eta": math.inf}, {}),
                               ({"eta": True}, {}),
                               ({}, {"loss": {"kappa": True}}),
                               ({}, {"loss": {"kappa": math.inf}}),
                               # finite, but not in float32, where the PM steps
                               ({}, {"budget": {"norm": "linf", "eps": 1e39}}),
                               ({}, {"step_size": 1e39}),
                               ({}, {"steps": 1, "budget": {"norm": "linf", "eps": 2e38}})):
        with pytest.raises(ConfigError):
            harness.build_search_config(bad_search, bad_pm)


_VALID_CONFIG = _raw_config(
    search={"max_queries": 12, "eta": 0.05, "order": "random", "select_rule": "paper_two_way"},
    pm={"steps": 4, "step_size": 0.02, "fusion": "weighted_logits",
        "budget": {"norm": "l2", "eps": 0.9}, "loss": {"kind": "cw_margin", "kappa": 1.5}},
    seed=5, max_images=3, allow_victim_overlap=False,
    goal_policy={"mode": "targeted", "policy": "provided", "label": 2})

# the numeric edge cases json.load can produce, drawn often, or any JSON value
_EDGES = [math.inf, -math.inf, math.nan, True, False, 0, -1, 10**400]
_json_values = st.sampled_from(_EDGES) | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                  max_size=3),
    max_leaves=4)


def _objects(node):
    """Every JSON object in node, node included if it is one."""
    if isinstance(node, dict):
        yield node
        for value in node.values():
            yield from _objects(value)


# an added key is one the parser knows: any other is refused at once
_KEYS = sorted({k for obj in _objects(_VALID_CONFIG) for k in obj} | {"order_seed"})


@st.composite
def _mutated_config(draw):
    raw = copy.deepcopy(_VALID_CONFIG)
    for _ in range(draw(st.integers(1, 2))):
        obj = draw(st.sampled_from(list(_objects(raw))))
        kind = draw(st.sampled_from(["replace", "delete", "add"] if obj else ["add"]))
        if kind == "add":
            obj[draw(st.sampled_from(_KEYS))] = draw(_json_values)
        else:
            key = draw(st.sampled_from(sorted(obj)))
            if kind == "delete":
                del obj[key]
            else:
                obj[key] = draw(_json_values)
    return raw


def _is_number(value) -> bool:
    return type(value) is int or (type(value) is float and math.isfinite(value))


@given(_mutated_config())
@settings(max_examples=500, deadline=None)
def test_a_mutated_config_parses_to_finite_numbers_or_raises_config_error(raw):
    try:
        cfg = harness.parse_experiment_config(raw)
    except ConfigError:
        return
    sc = harness.build_search_config(cfg.search, cfg.pm)
    assert all(map(_is_number, (sc.max_queries, sc.pm.steps, sc.pm.budget.eps,
                                sc.pm.loss.kappa, sc.pm.resolved_step(), cfg.seed)))
    for optional in (sc.eta, sc.pm.step_size, cfg.max_images, cfg.goal_policy.get("label")):
        assert optional is None or _is_number(optional)


def test_summarize_examples():
    ones = [{"success": True, "q_used": 1} for _ in range(4)]
    s = harness.summarize(ones, max_queries=50)
    assert s.fooling_rate == 1.0 and s.failures == 0
    assert s.queries_all == {"mean": 1.0, "std": 0.0, "median": 1.0, "min": 1.0, "max": 1.0}
    mix = [{"success": True, "q_used": 1}, {"success": True, "q_used": 3},
           {"success": False, "q_used": 50}]
    s2 = harness.summarize(mix, max_queries=50)
    assert s2.fooling_rate == pytest.approx(2 / 3)
    assert s2.queries_all["mean"] == pytest.approx(18.0)
    assert s2.queries_success["mean"] == 2.0
    assert s2.queries_success["median"] == 1.0  # lower middle on even counts
    s3 = harness.summarize([{"success": False, "q_used": 50}], max_queries=50)
    assert s3.queries_success is None and s3.fooling_rate == 0.0
    with pytest.raises(ValueError):
        harness.summarize([], max_queries=50)


def test_summary_json_stable():
    s = harness.summarize([{"success": True, "q_used": 2}], max_queries=10, skipped=1)
    text = harness.summary_to_json(s)
    payload = json.loads(text)
    assert payload["attempted"] == 1 and payload["skipped"] == 1
    assert text == harness.summary_to_json(s)
    assert text.endswith("\n")


def test_success_curve_monotone():
    recs = [{"success": True, "q_used": 1}, {"success": True, "q_used": 4},
            {"success": False, "q_used": 6}]
    curve = harness.success_curve(recs, 6)
    assert curve[0] == (1, 1 / 3)
    assert curve[3] == (4, 2 / 3)
    assert curve[-1] == (6, 2 / 3)
    fracs = [f for _, f in curve]
    assert all(b >= a for a, b in zip(fracs, fracs[1:]))


# ---------------------------------------------------------------------------
# end-to-end experiment on the session zoo

def _experiment_cfg(zoo_dir, out_dir, **over):
    raw = {
        "dataset": os.path.join(zoo_dir, "dataset.bds"),
        "zoo_manifest": os.path.join(zoo_dir, "manifest.json"),
        "surrogate_ids": ["cnn-a", "mlp-a"],
        "victim": {"model_id": "victim-mlp"},
        "goal_policy": {"mode": "targeted", "policy": "easiest"},
        "output_dir": out_dir,
        "search": {"max_queries": 6},
        "pm": {"steps": 3},
        "max_images": 8,
        "seed": 3,
    }
    raw.update(over)
    return harness.parse_experiment_config(raw)


def test_run_experiment_artifacts_and_replay(zoo_dir, tmp_path):
    out = str(tmp_path / "run")
    summary = harness.run_experiment(_experiment_cfg(zoo_dir, out))
    assert summary.attempted + summary.skipped == 8
    assert summary.attempted >= 1
    assert os.path.exists(os.path.join(out, "summary.json"))
    assert os.path.exists(os.path.join(out, "success_curve.csv"))
    logs = os.listdir(os.path.join(out, "query_logs"))
    assert len(logs) == summary.attempted
    rebuilt = harness.records_from_csv_dir(os.path.join(out, "query_logs"))
    assert [r["success"] for r in rebuilt] == \
        [r["success"] for r in sorted(summary.per_image, key=lambda r: r["index"])]
    assert [r["q_used"] for r in rebuilt] == \
        [r["q_used"] for r in sorted(summary.per_image, key=lambda r: r["index"])]
    with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["fooling_rate"] == summary.fooling_rate


def _artifacts(out_dir):
    """Every file an experiment wrote, by path relative to ``out_dir``."""
    logs = os.listdir(os.path.join(out_dir, "query_logs"))
    files = {}
    for rel in ["summary.json", "success_curve.csv"] + [os.path.join("query_logs", n) for n in logs]:
        with open(os.path.join(out_dir, rel), "rb") as fh:
            files[rel] = fh.read()
    return files


def test_run_experiment_byte_identical(zoo_dir, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    harness.run_experiment(_experiment_cfg(zoo_dir, out1))
    harness.run_experiment(_experiment_cfg(zoo_dir, out2))
    assert _artifacts(out1) == _artifacts(out2)


def test_run_experiment_served_victim(zoo_dir, zoo_bundle, tmp_path):
    # the same experiment against the victim served over HTTP writes the
    # same bytes, over one handshake and one request per victim query
    local, served = str(tmp_path / "local"), str(tmp_path / "served")
    summary = harness.run_experiment(_experiment_cfg(zoo_dir, local))
    with server.serve(zoo_bundle[2]["victim-mlp"], mode="soft") as handle:
        harness.run_experiment(_experiment_cfg(zoo_dir, served, victim={"url": handle.url}))
        n_requests = handle.request_count
    assert _artifacts(served) == _artifacts(local)
    screened = summary.attempted + summary.skipped
    assert n_requests == 1 + screened + sum(r["q_used"] for r in summary.per_image)


def test_run_experiment_victim_overlap_guard(zoo_dir, tmp_path):
    cfg = _experiment_cfg(zoo_dir, str(tmp_path / "c"),
                          victim={"model_id": "cnn-a"})
    with pytest.raises(ConfigError):
        harness.run_experiment(cfg)
    cfg_ok = _experiment_cfg(zoo_dir, str(tmp_path / "d"),
                             victim={"model_id": "cnn-a"},
                             allow_victim_overlap=True, max_images=2)
    harness.run_experiment(cfg_ok)


@pytest.mark.parametrize("victim", ["local", "served"])
def test_run_experiment_rejects_label_beyond_victim_classes(zoo_dir, zoo_bundle, tmp_path, victim):
    # the label is checked against the victim handle before any query
    goal = {"mode": "targeted", "policy": "provided", "label": 8}
    out = str(tmp_path / "g")
    if victim == "local":
        with pytest.raises(ConfigError, match="label"):
            harness.run_experiment(_experiment_cfg(zoo_dir, out, goal_policy=goal))
    else:
        with server.serve(zoo_bundle[2]["victim-mlp"], mode="soft") as handle:
            with pytest.raises(ConfigError, match="label"):
                harness.run_experiment(_experiment_cfg(zoo_dir, out, goal_policy=goal,
                                                       victim={"url": handle.url}))
            assert handle.request_count == 1  # the handshake only
    assert not os.path.exists(out)


def _misfit_manifest(zoo_dir, tmp_path):
    """A manifest over the session zoo's files plus two surrogates that do
    not fit it: one with 3 classes, one that takes 10x10 images."""
    manifest = zoo.load_manifest(os.path.join(zoo_dir, "manifest.json"))
    entries = [dict(e, file=os.path.join(zoo_dir, e["file"])) for e in manifest["models"]]
    for mid, shape, classes in (("three-class", (1, 12, 12), 3), ("ten-pixel", (1, 10, 10), 8)):
        model = zoo.build_model([nn.Flatten(), nn.Dense(int(np.prod(shape)), classes)],
                                shape, classes, 0, mid)
        path = str(tmp_path / f"{mid}.bem")
        zoo.save_model(model, path)
        entries.append({"id": mid, "file": path})
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(dict(manifest, models=entries)), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("victim", ["local", "served"])
def test_run_experiment_refuses_surrogates_that_do_not_fit_the_run(zoo_dir, zoo_bundle,
                                                                  tmp_path, victim):
    # checked before the first image: the class count against the victim
    # handle, after its handshake, and the input shape against the dataset
    manifest = _misfit_manifest(zoo_dir, tmp_path)
    out = str(tmp_path / "out")
    for misfit, match, requests in (("three-class", "victim's 8 classes", 1),
                                    ("ten-pixel", r"dataset's \(1, 12, 12\) images", 0)):
        over = {"zoo_manifest": manifest, "surrogate_ids": ["cnn-a", misfit]}
        if victim == "local":
            with pytest.raises(ConfigError, match=match) as err:
                harness.run_experiment(_experiment_cfg(zoo_dir, out, **over))
        else:
            with server.serve(zoo_bundle[2]["victim-mlp"], mode="soft") as handle:
                with pytest.raises(ConfigError, match=match) as err:
                    harness.run_experiment(_experiment_cfg(zoo_dir, out, **over,
                                                           victim={"url": handle.url}))
                assert handle.request_count == requests
        assert misfit in str(err.value) and "cnn-a" not in str(err.value)
    assert not os.path.exists(out)


@pytest.mark.parametrize("victim", ["local", "served"])
def test_run_experiment_refuses_a_victim_that_does_not_take_the_images(zoo_dir, tmp_path,
                                                                        victim):
    # checked before the first image, like the surrogates: a victim for
    # 10x10 images would otherwise fail its first screening query
    manifest = _misfit_manifest(zoo_dir, tmp_path)
    out = str(tmp_path / "out")
    match = r"victim takes \(1, 10, 10\) images, not the dataset's \(1, 12, 12\)"
    if victim == "local":
        with pytest.raises(ConfigError, match=match):
            harness.run_experiment(_experiment_cfg(zoo_dir, out, zoo_manifest=manifest,
                                                   victim={"model_id": "ten-pixel"}))
    else:
        model = zoo.load_model(str(tmp_path / "ten-pixel.bem"))
        with server.serve(model, mode="soft") as handle:
            with pytest.raises(ConfigError, match=match):
                harness.run_experiment(_experiment_cfg(zoo_dir, out,
                                                       victim={"url": handle.url}))
            assert handle.request_count == 1  # the handshake only
    assert not os.path.exists(out)


@pytest.mark.parametrize("fails", [False, True])
def test_run_experiment_closes_the_victim_connection(zoo_dir, zoo_bundle, tmp_path,
                                                     monkeypatch, fails):
    # the run's one victim handle is closed when the run ends, by an error too
    handles = []

    def connect(*args, **kwargs):
        handles.append(client.connect(*args, **kwargs))
        return handles[-1]
    monkeypatch.setattr(harness, "connect", connect)
    over = {"goal_policy": {"mode": "targeted", "policy": "provided", "label": 8}} if fails else {}
    with server.serve(zoo_bundle[2]["victim-mlp"], mode="soft") as handle:
        cfg = _experiment_cfg(zoo_dir, str(tmp_path / "out"), victim={"url": handle.url},
                              max_images=2, **over)
        if fails:
            with pytest.raises(ConfigError):
                harness.run_experiment(cfg)
        else:
            harness.run_experiment(cfg)
    assert len(handles) == 1 and handles[0]._session.sock is None


def test_run_experiment_unknown_ids(zoo_dir, tmp_path):
    with pytest.raises(ConfigError):
        harness.run_experiment(_experiment_cfg(zoo_dir, str(tmp_path / "e"),
                                               surrogate_ids=["cnn-a", "ghost"]))
    with pytest.raises(ConfigError):
        harness.run_experiment(_experiment_cfg(zoo_dir, str(tmp_path / "f"),
                                               victim={"model_id": "ghost"}))


# ---------------------------------------------------------------------------
# triangle sweep

def _sweep_fixture():
    surrogates = [util.tiny_model(110 + j, j) for j in range(3)]
    victim = util.tiny_model(114, 1)
    x = util.rand_image(110)
    cfg = pm.PMConfig(budget=pm.Budget("linf", 0.12), steps=2)
    return surrogates, victim, x, cfg


def test_triangle_sweep_row_structure():
    surrogates, victim, x, cfg = _sweep_fixture()
    goal = util.targeted(2)
    for r in (1, 3, 10):
        rows = harness.triangle_sweep(x, goal, surrogates, victim, r, cfg)
        assert len(rows) == (r + 1) * (r + 2) // 2
        assert all(i + j + k == r for i, j, k, _, _ in rows)
    rows = harness.triangle_sweep(x, goal, surrogates, victim, 1, cfg)
    assert [(i, j, k) for i, j, k, _, _ in rows] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_triangle_sweep_vertex_matches_direct_run():
    surrogates, victim, x, cfg = _sweep_fixture()
    goal = util.targeted(2)
    rows = harness.triangle_sweep(x, goal, surrogates, victim, 2, cfg)
    first = rows[0]
    assert (first[0], first[1], first[2]) == (2, 0, 0)
    _, x_star = pm.pm_run(x, goal, surrogates, np.array([1.0, 0.0, 0.0]),
                          np.zeros_like(x), cfg)
    from ensattack.losses import single_loss
    assert first[3] == single_loss(nn.forward(victim, x_star), goal, cfg.loss)[0]


def test_triangle_sweep_validation():
    surrogates, victim, x, cfg = _sweep_fixture()
    with pytest.raises(ValueError):
        harness.triangle_sweep(x, util.targeted(0), surrogates[:2], victim, 2, cfg)
    with pytest.raises(ValueError):
        harness.triangle_sweep(x, util.targeted(0), surrogates, victim, 0, cfg)


def test_write_sweep_csv(tmp_path):
    rows = [(2, 0, 0, 1.5, False), (0, 2, 0, -0.0, True)]
    path = tmp_path / "sweep.csv"
    harness.write_sweep_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "i,j,k,loss,success"
    assert lines[1] == "2,0,0,1.5,0"
    assert lines[2] == "0,2,0,-0.0,1"

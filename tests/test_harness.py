import copy
import csv
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import util
from ensattack import client, harness, losses, nn, pm, search, server, zoo
from ensattack.errors import ConfigError, FormatError
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


@pytest.mark.parametrize("max_queries", [0, -5, 2.5, True, "50", None])
def test_summarize_refuses_a_budget_that_is_not_a_count(max_queries):
    # -5 used to count each failed image as -5 queries
    with pytest.raises(ValueError, match="max_queries must be an integer >= 1"):
        harness.summarize([{"index": 0, "success": False, "q_used": 1}], max_queries)


def test_summarize_takes_a_numpy_integer_budget():
    records = [{"index": 0, "success": False, "q_used": 1}]
    assert harness.summary_to_json(harness.summarize(records, np.int64(5))) == \
        harness.summary_to_json(harness.summarize(records, 5))


def test_summarize_refuses_a_record_over_the_budget_naming_its_image():
    records = [{"index": 4, "success": True, "q_used": 50},
               {"index": 9, "success": False, "q_used": 51}]
    with pytest.raises(ValueError, match="image 9 used 51 queries, more than max_queries=50"):
        harness.summarize(records, max_queries=50)
    assert harness.summarize(records[:1], max_queries=50).queries_all["max"] == 50.0


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


def test_artifacts_are_written_whole_or_not_at_all(tmp_path):
    path = str(tmp_path / "summary.json")
    with pytest.raises(RuntimeError):
        with harness._atomically(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
            fh.write("{\"attem")
            raise RuntimeError("interrupted mid-write")
    assert os.listdir(tmp_path) == []
    with harness._atomically(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        fh.write("{}\n")
    with pytest.raises(RuntimeError):  # a failed rewrite keeps the whole old file
        with harness._atomically(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
            fh.write("[")
            raise RuntimeError("interrupted mid-write")
    assert os.listdir(tmp_path) == ["summary.json"]
    assert (tmp_path / "summary.json").read_text(encoding="utf-8") == "{}\n"


def test_export_query_log_csv(tmp_path):
    surrogates = [util.tiny_model(70 + j, j) for j in range(3)]
    cfg = search.SearchConfig(pm=pm.PMConfig(budget=pm.Budget("linf", 0.12), steps=3),
                              max_queries=9)
    out = search.bases_attack(util.rand_image(70), util.targeted(1),
                              util.ScriptedOracle(util.TINY_CLASSES, 5), surrogates, cfg)
    path = tmp_path / "image_0006.csv"
    harness.export_query_log_csv(out, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["query_index", "coordinate", "candidate_tag",
                       "victim_loss", "success_flag"]
    body = rows[1:]
    assert len(body) == out.q_used
    assert [int(r[0]) for r in body] == list(range(1, 6))
    for r, ev in zip(body, out.events):
        assert int(r[1]) == ev.coordinate
        assert r[2] == ev.candidate_tag
        assert float(r[3]) == ev.victim_loss
        assert r[4] == str(int(ev.success_flag))
    assert body[-1][4] == "1" and all(r[4] == "0" for r in body[:-1])
    assert harness.records_from_csv_dir(str(tmp_path)) == \
        [{"index": 6, "success": True, "q_used": 5}]


def test_a_query_log_cut_off_mid_write_leaves_no_file(zoo_dir, tmp_path, monkeypatch):
    out = str(tmp_path / "run")
    real = harness.export_query_log_csv

    def cut_off(outcome, path):
        real(outcome, path)
        with open(path, "r+", encoding="utf-8") as fh:
            fh.truncate(40)
        raise OSError("disk full")
    monkeypatch.setattr(harness, "export_query_log_csv", cut_off)
    with pytest.raises(OSError, match="disk full"):
        harness.run_experiment(_experiment_cfg(zoo_dir, out))
    assert os.listdir(os.path.join(out, "query_logs")) == []
    assert os.listdir(out) == ["query_logs"]


_LOG_HEADER = "query_index,coordinate,candidate_tag,victim_loss,success_flag\r\n"


def _write_log(log_dir, name, rows=("1,0,plus,0.5,0", "2,1,minus,-0.25,1"),
               header=_LOG_HEADER):
    log_dir.mkdir(exist_ok=True)
    (log_dir / name).write_bytes((header + "".join(r + "\r\n" for r in rows)).encode())


def test_records_from_csv_dir_reads_the_index_from_the_name(tmp_path):
    logs = tmp_path / "logs"
    for name in ("image_10000.csv", "image_9999.csv", "image_0002.csv"):
        _write_log(logs, name)
    _write_log(logs, "image_0003.csv", rows=("1,0,plus,0.5,0",))
    _write_log(logs, "image_0004.csv", rows=())  # a header alone is skipped
    (logs / "image_0005.csv.123.tmp").write_bytes(b"query_")  # not a .csv
    records = harness.records_from_csv_dir(str(logs))
    assert [r["index"] for r in records] == [2, 3, 9999, 10000]
    assert [(r["success"], r["q_used"]) for r in records] == \
        [(True, 2), (False, 1), (True, 2), (True, 2)]


@pytest.mark.parametrize("name, rows, header", [
    ("log.csv", None, None),
    ("image_12a.csv", None, None),
    ("image_٣.csv", None, None),
    ("image_0001.csv", None, "query_index,coordinate,candidate_tag,victim_loss\r\n"),
    ("image_0001.csv", None, "coordinate,success_flag\r\n"),
    ("image_0001.csv", None, ""),
    ("image_0001.csv", ("1,0,plus,0.5,0", "x,1,minus,0.1,1"), None),
    ("image_0001.csv", ("-1,0,plus,0.5,0",), None),
    ("image_0001.csv", ("2.0,0,plus,0.5,0",), None),
    ("image_0001.csv", ("1" * 40 + ",0,plus,0.5,0",), None),
    ("image_0001.csv", ("1,0,plus,0.5,2",), None),
    ("image_0001.csv", ("1,0,plus,0.5,true",), None),
    ("image_0001.csv", ("1,0,plus",), None),
    ("image_0001.csv", ("0,-1,init,1.0,1",), None),
    ("image_0001.csv", ("1,0,plus,0.5,0", "3,1,minus,0.1,0", "2,1,plus,0.1,1"), None),
    ("image_0001.csv", ("1,0,plus,0.5,0", "1,1,minus,0.1,1"), None),
    ("image_0001.csv", ("1,0,plus,0.5,1", "2,1,minus,0.1,0"), None),
], ids=["name", "name-letters", "name-non-ascii-digit", "no-flag-column", "no-index-column",
        "empty", "index-text", "index-negative", "index-float", "index-huge", "flag-2",
        "flag-word", "short-row", "index-zero", "index-out-of-order", "index-repeated",
        "success-before-last"])
def test_records_from_csv_dir_rejects_a_bad_log_naming_it(tmp_path, name, rows, header):
    logs = tmp_path / "logs"
    _write_log(logs, "image_0000.csv")
    _write_log(logs, name, **({} if rows is None else {"rows": rows}),
               **({} if header is None else {"header": header}))
    with pytest.raises(FormatError, match=name):
        harness.records_from_csv_dir(str(logs))


def test_records_from_csv_dir_rejects_two_logs_of_one_image(tmp_path):
    logs = tmp_path / "logs"
    _write_log(logs, "image_0007.csv")
    _write_log(logs, "image_007.csv")
    with pytest.raises(FormatError, match="image 7"):
        harness.records_from_csv_dir(str(logs))
    (logs / "image_007.csv").unlink()
    (logs / "image_0007.csv").write_bytes(b"query_index,success_flag\r\n1,\xff\r\n")
    with pytest.raises(FormatError, match="image_0007.csv"):  # not UTF-8
        harness.records_from_csv_dir(str(logs))


_LOG_FILE = (_LOG_HEADER + "1,0,plus,0.5,0\r\n2,0,minus,0.25,0\r\n"
             "3,1,\"plus,odd\",-0.125,1\r\n").encode()


@st.composite
def _mutated_log(draw):
    """The log truncated, with one byte flipped, or with bytes inserted or
    appended."""
    kind = draw(st.sampled_from(["truncate", "flip", "insert", "append"]))
    at = draw(st.integers(0, len(_LOG_FILE) - 1))
    if kind == "truncate":
        return _LOG_FILE[:at]
    if kind == "flip":
        return (_LOG_FILE[:at] + bytes([_LOG_FILE[at] ^ draw(st.integers(1, 255))])
                + _LOG_FILE[at + 1:])
    extra = draw(st.binary(min_size=1, max_size=16) | st.sampled_from(
        [b",", b"\r\n", b"\"", b"\x00", b"9,9,x,1,1\r\n", b"\xef\xbb\xbf"]))
    return _LOG_FILE[:at] + extra + _LOG_FILE[at:] if kind == "insert" else _LOG_FILE + extra


@given(_mutated_log())
@settings(max_examples=300, deadline=None)
def test_a_mutated_query_log_gives_records_or_raises_format_error(blob):
    with tempfile.TemporaryDirectory() as d:
        with open(os.path.join(d, "image_0042.csv"), "wb") as fh:
            fh.write(blob)
        try:
            records = harness.records_from_csv_dir(d)
        except FormatError as exc:
            assert "image_0042.csv" in str(exc)
            return
    assert len(records) <= 1
    for r in records:
        assert r["index"] == 42 and type(r["success"]) is bool
        assert type(r["q_used"]) is int and 0 <= r["q_used"] < 10 ** 18


def test_run_experiment_untargeted(zoo_dir, zoo_bundle, tmp_path, monkeypatch):
    # the paper's untargeted goal end to end: the artifacts agree with the
    # logs, no record has a target, and every success changes the label
    attacks = []

    def recording_attack(img, goal, victim, surrogates, cfg):
        outcome = search.bases_attack(img, goal, victim, surrogates, cfg)
        attacks.append((img, goal, outcome))
        return outcome

    monkeypatch.setattr(harness, "bases_attack", recording_attack)
    out = str(tmp_path / "untargeted")
    summary = harness.run_experiment(_experiment_cfg(zoo_dir, out,
                                                     goal_policy={"mode": "untargeted"}))
    rebuilt = harness.summarize(harness.records_from_csv_dir(os.path.join(out, "query_logs")),
                                6, summary.skipped)
    with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    expected = json.loads(harness.summary_to_json(rebuilt))
    assert [{k: r[k] for k in ("index", "success", "q_used")} for r in payload.pop("per_image")] \
        == expected.pop("per_image")
    assert payload == expected
    assert summary.attempted == len(attacks) >= 1 and summary.fooling_rate > 0
    assert all(r["target"] is None for r in summary.per_image)
    victim = zoo_bundle[2]["victim-mlp"]
    for (img, goal, outcome), record in zip(attacks, summary.per_image):
        assert goal == losses.AttackGoal("untargeted", record["label"])
        if outcome.success:
            adversarial = np.argmax(nn.forward(victim, img + outcome.delta))
            assert adversarial != record["label"]


def test_run_experiment_skips_images_whose_label_is_the_provided_target(zoo_dir, zoo_bundle,
                                                                         tmp_path):
    _, dataset, models = zoo_bundle
    test = dataset.test_split()
    label = int(test.labels[0])
    n = 16  # the split holds the images class by class: this reaches two classes
    out = str(tmp_path / "provided")
    summary = harness.run_experiment(_experiment_cfg(
        zoo_dir, out, max_images=n,
        goal_policy={"mode": "targeted", "policy": "provided", "label": label}))
    clean = [int(np.argmax(nn.forward(models["victim-mlp"], test.images[i]))) for i in range(n)]
    misclassified = sum(c != int(y) for c, y in zip(clean, test.labels[:n]))
    own_label = sum(c == int(y) == label for c, y in zip(clean, test.labels[:n]))
    assert own_label >= 1 and summary.attempted >= 1
    assert summary.skipped == misclassified + own_label
    assert summary.attempted == n - summary.skipped
    assert all(r["label"] != label and r["target"] == label for r in summary.per_image)


@pytest.mark.parametrize("misclassified", [True, False], ids=["misclassified", "on-target"])
def test_run_experiment_refuses_a_run_with_no_image_left_to_attack(zoo_dir, zoo_bundle, tmp_path,
                                                                    misclassified):
    # the only image screened is skipped, because the victim misclassifies
    # it or because its label is the provided target; the message counts
    # both reasons, and the run leaves nothing behind, not even query_logs/
    _, dataset, models = zoo_bundle
    predicted = int(np.argmax(nn.forward(models["victim-mlp"], dataset.test_split().images[0])))
    labels = dataset.labels.copy()
    # test image 0 is dataset image 1
    labels[1] = (predicted + 1) % dataset.num_classes if misclassified else predicted
    path = str(tmp_path / "dataset.bds")
    zoo.save_dataset(zoo.LabeledDataset(dataset.images, labels, dataset.num_classes,
                                        dataset.side), path)
    out = str(tmp_path / "out")
    counts = (1, 0) if misclassified else (0, 1)
    with pytest.raises(ConfigError, match=f"^no image left to attack: {counts[0]} misclassified "
                                          f"by the victim, {counts[1]} whose label is the target$"):
        harness.run_experiment(_experiment_cfg(
            zoo_dir, out, dataset=path, max_images=1,
            goal_policy={"mode": "targeted", "policy": "provided", "label": predicted}))
    assert not os.path.exists(out)


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


@pytest.mark.parametrize("resolution", [True, 2.5, "2"])
def test_triangle_sweep_refuses_a_resolution_that_is_not_an_integer(resolution, monkeypatch):
    surrogates, victim, x, cfg = _sweep_fixture()
    runs = util.record_calls(monkeypatch, pm, "pm_run")
    with pytest.raises(ValueError, match="resolution"):
        harness.triangle_sweep(x, util.targeted(0), surrogates, victim, resolution, cfg)
    assert runs == []


def test_triangle_sweep_takes_a_numpy_integer_resolution():
    surrogates, victim, x, cfg = _sweep_fixture()
    goal = util.targeted(2)
    assert harness.triangle_sweep(x, goal, surrogates, victim, np.int64(2), cfg) == \
        harness.triangle_sweep(x, goal, surrogates, victim, 2, cfg)


def test_write_sweep_csv(tmp_path):
    rows = [(2, 0, 0, 1.5, False), (0, 2, 0, -0.0, True)]
    path = tmp_path / "sweep.csv"
    harness.write_sweep_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "i,j,k,loss,success"
    assert lines[1] == "2,0,0,1.5,0"
    assert lines[2] == "0,2,0,-0.0,1"

import json
import os
import socket
import subprocess
import sys

import numpy as np
import pytest

import util
from ensattack import client, nn, server, zoo
from ensattack.cli import main
from ensattack.errors import FormatError, TransportError


def test_verb_is_required():
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["unknown-verb"])


def test_zoo_build_and_train_verbs(tmp_path, capsys):
    d = str(tmp_path / "microzoo")
    rc = main(["zoo-build", d, "--classes", "4", "--per-class", "4",
               "--side", "8", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "built 8 untrained models" in out and "16 images" in out
    assert os.path.exists(os.path.join(d, "manifest.json"))
    assert os.path.exists(os.path.join(d, "dataset.bds"))

    rc = main(["zoo-train", d])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if "test accuracy" in l]
    assert len(lines) == 8
    manifest = zoo.load_manifest(os.path.join(d, "manifest.json"))
    assert all(e["clean_accuracy"] is not None for e in manifest["models"])


def _attack_config(zoo_dir, out_dir, **over):
    raw = {
        "dataset": os.path.join(zoo_dir, "dataset.bds"),
        "zoo_manifest": os.path.join(zoo_dir, "manifest.json"),
        "surrogate_ids": ["cnn-a", "mlp-a"],
        "victim": {"model_id": "victim-mlp"},
        "goal_policy": {"mode": "targeted", "policy": "easiest"},
        "output_dir": out_dir,
        "search": {"max_queries": 5},
        "pm": {"steps": 3},
        "max_images": 4,
    }
    raw.update(over)
    return raw


def test_attack_and_summarize_verbs(zoo_dir, tmp_path, capsys):
    out_dir = str(tmp_path / "run")
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(_attack_config(zoo_dir, out_dir)))
    assert main(["attack", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "attempted" in out and "fooling rate" in out
    log_dir = os.path.join(out_dir, "query_logs")
    assert main(["summarize", log_dir, "--max-queries", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["attempted"] == len(os.listdir(log_dir))
    assert 0.0 <= payload["fooling_rate"] <= 1.0


@pytest.mark.parametrize("over, key", [
    ({"max_images": "2"}, "max_images"),
    ({"max_images": 0}, "max_images"),
    ({"max_images": True}, "max_images"),
    ({"output_dir": 5}, "output_dir"),
    ({"dataset": None}, "dataset"),
    ({"zoo_manifest": ["m.json"]}, "zoo_manifest"),
    ({"surrogate_ids": ["cnn-a", 1]}, "surrogate_ids"),
    ({"seed": "1"}, "seed"),
    ({"seed": True}, "seed"),
    ({"allow_victim_overlap": "yes"}, "allow_victim_overlap"),
    ({"pm": {"steps": 2.5}}, "steps"),
    ({"search": {"max_queries": 2.5}}, "max_queries"),
    ({"search": {"max_queries": False}}, "max_queries"),
    ({"pm": {"fusion": "mean"}}, "fusion"),
    ({"goal_policy": {"mode": "targeted", "policy": "provided", "label": True}}, "label"),
    ({"goal_policy": {"mode": "targeted", "policy": "provided", "label": 2.5}}, "label"),
    ({"goal_policy": {"mode": "targeted", "policy": "provided", "label": -1}}, "label"),
    ({"goal_policy": {"mode": "targeted", "policy": "provided", "label": "3"}}, "label"),
    ({"goal_policy": {"mode": "targeted", "policy": "provided"}}, "label"),
    ({"goal_policy": {"mode": "targeted", "policy": "easiest", "label": 3}}, "label"),
])
def test_attack_config_field_types_exit_2_before_reading_files(tmp_path, capsys, over, key):
    # the zoo does not exist, so a check made after a file read would
    # surface as a file error instead
    out_dir = tmp_path / "run"
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(_attack_config(str(tmp_path / "no-zoo"), str(out_dir), **over)))
    assert main(["attack", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err
    assert not out_dir.exists()


def test_attack_config_errors_exit_2(zoo_dir, tmp_path, capsys):
    assert main(["attack", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["attack", str(bad)]) == 2
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps(_attack_config(zoo_dir, str(tmp_path / "x"),
                                                 surrogate_ids=[])))
    assert main(["attack", str(invalid)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    # a manifest the loader cannot trust
    with open(os.path.join(zoo_dir, "manifest.json"), encoding="utf-8") as fh:
        good = json.load(fh)
    entries = good["models"]
    no_models = {k: v for k, v in good.items() if k != "models"}
    for bad_manifest in ([good], no_models, {**good, "models": 5},
                         {**good, "models": [{"id": e["id"]} for e in entries]},
                         {**good, "models": entries + ["cnn-a"]},
                         {**good, "models": [{**e, "id": 7} for e in entries]},
                         {**good, "dataset": None},
                         {**good, "models": entries + entries[:1]}):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(bad_manifest))
        with pytest.raises(FormatError, match="manifest"):
            zoo.load_manifest(path)
        cfg = _attack_config(zoo_dir, str(tmp_path / "y"), zoo_manifest=str(path))
        invalid.write_text(json.dumps(cfg))
        assert main(["attack", str(invalid)]) == 2
        assert capsys.readouterr().err.startswith("config error")


@pytest.mark.parametrize("damage, offset", [
    (lambda raw: raw[: len(raw) // 2], None),  # truncated mid-file
    (lambda raw: b"", 0),
    (lambda raw: raw[:20] + b"\xff" + raw[20:], 20),  # not UTF-8
    (lambda raw: raw.replace(b'"dataset"', b'"dat\xc3set"', 1), None),  # a bad continuation
], ids=["truncated", "empty", "invalid-start-byte", "invalid-continuation"])
def test_undecodable_manifest_is_a_format_error_naming_the_file(
        damage, offset, zoo_dir, tmp_path, capsys):
    with open(os.path.join(zoo_dir, "manifest.json"), "rb") as fh:
        path = tmp_path / "manifest.json"
        path.write_bytes(damage(fh.read()))
    with pytest.raises(FormatError, match="manifest") as err:
        zoo.load_manifest(path)
    assert str(path) in str(err.value)
    if offset is not None:
        assert err.value.offset == offset
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(_attack_config(zoo_dir, str(tmp_path / "y"), zoo_manifest=str(path))))
    assert main(["attack", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and str(path) in err


def test_attack_rejects_search_order_seed(zoo_dir, tmp_path, capsys):
    cfg = tmp_path / "seeded.json"
    cfg.write_text(json.dumps(_attack_config(zoo_dir, str(tmp_path / "z"),
                                             search={"max_queries": 5, "order_seed": 3})))
    assert main(["attack", str(cfg)]) == 2
    assert "order_seed" in capsys.readouterr().err


def test_attack_transport_error_exit_3(zoo_dir, tmp_path, capsys):
    cfg = tmp_path / "dead.json"
    cfg.write_text(json.dumps(_attack_config(zoo_dir, str(tmp_path / "y"),
                                             victim={"url": "http://127.0.0.1:9"})))
    assert main(["attack", str(cfg)]) == 3
    assert "transport error" in capsys.readouterr().err


def test_attack_against_a_hard_label_server_exits_2_after_the_handshake(zoo_dir, tmp_path,
                                                                         capsys):
    model = zoo.load_model(os.path.join(zoo_dir, "models", "victim-mlp.bem"))
    out = tmp_path / "hard"
    cfg = tmp_path / "hard.json"
    with server.serve(model, mode="hard") as handle:
        cfg.write_text(json.dumps(_attack_config(zoo_dir, str(out), victim={"url": handle.url})))
        assert main(["attack", str(cfg)]) == 2
        assert handle.request_count == 1  # the /v1/meta handshake alone
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "soft" in err  # a CapabilityError
    assert not out.exists()


def test_summarize_empty_dir_exit_2(tmp_path):
    empty = tmp_path / "logs"
    empty.mkdir()
    assert main(["summarize", str(empty)]) == 2
    assert main(["summarize", str(tmp_path / "nowhere")]) == 2


@pytest.mark.parametrize("max_queries, rows, message", [
    ("-5", "1,0\n", "max_queries must be an integer >= 1"),
    ("0", "1,0\n", "max_queries must be an integer >= 1"),
    ("5", "".join(f"{k},0\n" for k in range(1, 10)), "image 3 used 9 queries"),
])
def test_summarize_a_bad_budget_or_an_overspent_log_exits_2(tmp_path, capsys, max_queries,
                                                            rows, message):
    logs = tmp_path / "logs"
    logs.mkdir()
    (logs / "image_0003.csv").write_text("query_index,success_flag\n" + rows, encoding="utf-8")
    assert main(["summarize", str(logs), "--max-queries", max_queries]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_summarize_a_log_without_a_flag_column_exits_2(tmp_path, capsys):
    logs = tmp_path / "logs"
    logs.mkdir()
    (logs / "image_0001.csv").write_text("query_index,coordinate\n1,0\n", encoding="utf-8")
    assert main(["summarize", str(logs)]) == 2
    err = capsys.readouterr().err
    assert "image_0001.csv" in err and "success_flag" in err and "Traceback" not in err


def test_sweep_triangle_verb(zoo_dir, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep-triangle", "--zoo", zoo_dir,
               "--surrogates", "cnn-a,mlp-a,mlp-b", "--victim", "victim-cnn",
               "--image", "0", "--resolution", "2", "--steps", "2",
               "--out", str(out)])
    assert rc == 0
    assert "wrote 6 rows" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "i,j,k,loss,success"
    assert len(lines) == 7

    assert main(["sweep-triangle", "--zoo", zoo_dir, "--surrogates", "cnn-a,mlp-a",
                 "--victim", "victim-cnn", "--out", str(out)]) == 2
    assert main(["sweep-triangle", "--zoo", zoo_dir,
                 "--surrogates", "cnn-a,mlp-a,ghost", "--victim", "victim-cnn",
                 "--out", str(out)]) == 2
    assert main(["sweep-triangle", "--zoo", zoo_dir,
                 "--surrogates", "cnn-a,mlp-a,mlp-b", "--victim", "victim-cnn",
                 "--image", "9999", "--out", str(out)]) == 2


def _sweep(zoo_dir, out, *extra):
    return main(["sweep-triangle", "--zoo", zoo_dir, "--surrogates", "cnn-a,mlp-a,mlp-b",
                 "--victim", "victim-cnn", "--resolution", "2", "--steps", "2",
                 "--out", str(out), *extra])


def test_sweep_triangle_untargeted_writes_the_untargeted_sweep(zoo_dir, zoo_bundle, tmp_path):
    from ensattack import harness, losses
    from ensattack import pm as pm_mod

    out = tmp_path / "untargeted.csv"
    assert _sweep(zoo_dir, out, "--mode", "untargeted") == 0
    _, dataset, models = zoo_bundle
    test = dataset.test_split()
    rows = harness.triangle_sweep(
        test.images[0], losses.AttackGoal("untargeted", int(test.labels[0])),
        [models[s] for s in ("cnn-a", "mlp-a", "mlp-b")], models["victim-cnn"], 2,
        pm_mod.PMConfig(budget=pm_mod.Budget("linf", 16.0 / 255.0), steps=2))
    harness.write_sweep_csv(rows, tmp_path / "direct.csv")
    assert out.read_bytes() == (tmp_path / "direct.csv").read_bytes()


def test_sweep_triangle_refuses_a_target_that_is_the_true_label(zoo_dir, zoo_bundle,
                                                               tmp_path, capsys):
    label = int(zoo_bundle[1].test_split().labels[0])
    out = tmp_path / "sweep.csv"
    assert _sweep(zoo_dir, out, "--target", str(label)) == 2
    assert "target label equals the true label" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_triangle_refuses_a_target_without_targeted_mode(zoo_dir, tmp_path, capsys):
    # the target used to be dropped, the untargeted sweep written, exit 0
    out = tmp_path / "sweep.csv"
    assert _sweep(zoo_dir, out, "--mode", "untargeted", "--target", "3") == 2
    assert "--target" in capsys.readouterr().err
    assert not out.exists()


def test_serve_verb_subprocess(zoo_dir):
    model_path = os.path.join(zoo_dir, "models", "victim-mlp.bem")
    proc = subprocess.Popen(
        [sys.executable, "-m", "ensattack.cli", "serve", "--model", model_path,
         "--bind", "127.0.0.1:0", "--budget", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline().strip()
        assert line.startswith(f"serving {model_path} (soft) on http://")
        url = line.split(" on ")[-1]
        orc = client.connect(url)
        model = zoo.load_model(model_path)
        assert orc.num_classes == model.num_classes
        x = util.rand_image(0, shape=model.input_shape)
        assert np.array_equal(orc.query(x).logits, nn.forward(model, x))
        orc.query(x)
        orc.query(x)
        with pytest.raises(TransportError):
            orc.query(x)
    finally:
        proc.terminate()
        proc.wait(timeout=10)


def test_serve_missing_model_exit_2(tmp_path):
    assert main(["serve", "--model", str(tmp_path / "ghost.bem"),
                 "--bind", "127.0.0.1:0"]) == 2


@pytest.mark.parametrize("bind, budget, word", [
    ("127.0.0.1:0", "-1", "budget"),
    # these two used to print int()'s "invalid literal" message
    ("127.0.0.1:0", "abc", "--budget takes an integer >= 0 or 'none', got 'abc'"),
    ("127.0.0.1:0", "1.5", "--budget takes an integer >= 0 or 'none', got '1.5'"),
    ("127.0.0.1:99999", "none", "port"),  # bind() used to die with an OverflowError
    ("127.0.0.1:-1", "none", "port"),
], ids=["negative-budget", "budget-abc", "budget-1.5", "port-99999", "port-minus-1"])
def test_serve_a_bad_budget_or_port_exits_2(tmp_path, capsys, bind, budget, word):
    path = str(tmp_path / "m.bem")
    zoo.save_model(util.tiny_model(50, 0), path)
    assert main(["serve", "--model", path, "--bind", bind, "--budget", budget]) == 2
    assert word in capsys.readouterr().err


@pytest.mark.parametrize("bind", ["192.0.2.1:80", "in-use"],
                         ids=["address-not-local", "port-in-use"])
def test_serve_a_bind_failure_is_a_config_error(tmp_path, capsys, bind):
    # both used to read "file error"; 192.0.2.1 is a documentation address
    # that no interface holds, and being numeric it needs no name lookup
    path = str(tmp_path / "m.bem")
    zoo.save_model(util.tiny_model(50, 0), path)
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        if bind == "in-use":
            bind = f"127.0.0.1:{taken.getsockname()[1]}"
        assert main(["serve", "--model", path, "--bind", bind]) == 2
    assert f"config error: cannot serve on {bind}: " in capsys.readouterr().err


@pytest.mark.parametrize("option, value, word", [
    ("--side", "5", "conv2d kernel 3"),  # used to leave dataset.bds and models/ behind
    ("--per-class", "0", "per_class"),  # used to build an empty dataset
    ("--per-class", "1", "per_class"),  # used to split each class to one side
], ids=["side-5", "per-class-0", "per-class-1"])
def test_zoo_build_bad_sizes_exit_2_and_write_nothing(tmp_path, capsys, option, value, word):
    d = tmp_path / "microzoo"
    assert main(["zoo-build", str(d), option, value]) == 2
    assert word in capsys.readouterr().err
    assert not d.exists()


@pytest.mark.parametrize("seed", ["missing", "7"])
def test_zoo_train_a_manifest_seed_that_is_not_an_integer_exits_2(tmp_path, capsys, seed):
    d = str(tmp_path / "microzoo")
    assert main(["zoo-build", d, "--classes", "2", "--per-class", "2", "--side", "8"]) == 0
    path = os.path.join(d, "manifest.json")
    manifest = zoo.load_manifest(path)
    if seed == "missing":
        del manifest["seed"]
    else:
        manifest["seed"] = seed
    zoo.save_manifest(manifest, path)
    capsys.readouterr()
    assert main(["zoo-train", d]) == 2
    err = capsys.readouterr().err
    assert "manifest" in err and "seed" in err

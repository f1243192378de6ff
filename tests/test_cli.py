import json
import os
import subprocess
import sys

import numpy as np
import pytest

import util
from ensattack import client, nn, zoo
from ensattack.cli import main
from ensattack.errors import TransportError


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


def test_summarize_empty_dir_exit_2(tmp_path):
    empty = tmp_path / "logs"
    empty.mkdir()
    assert main(["summarize", str(empty)]) == 2
    assert main(["summarize", str(tmp_path / "nowhere")]) == 2


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
        orc = client.connect(url, require_mode="soft")
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

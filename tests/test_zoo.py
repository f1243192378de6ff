import json
import os
import re
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import util
from ensattack import nn, zoo
from ensattack.errors import FormatError, TrainingDivergedError


def _small_ds(seed=3):
    return zoo.make_synthetic_dataset(num_classes=4, per_class=6, side=8, seed=seed)


def test_dataset_shapes_and_range():
    ds = _small_ds()
    assert ds.images.shape == (24, 1, 8, 8) and ds.images.dtype == np.float32
    assert ds.labels.shape == (24,) and ds.labels.dtype == np.int64
    assert float(ds.images.min()) >= 0.0 and float(ds.images.max()) <= 1.0


def test_dataset_deterministic_and_seed_sensitive():
    assert np.array_equal(_small_ds().images, _small_ds().images)
    assert not np.array_equal(_small_ds().images, _small_ds(seed=4).images)


def test_dataset_label_layout_and_splits():
    ds = _small_ds()
    assert np.array_equal(ds.labels, np.repeat(np.arange(4), 6))
    tr, te = ds.train_split(), ds.test_split()
    assert len(tr) == 12 and len(te) == 12
    assert np.array_equal(tr.images[0], ds.images[0])
    assert np.array_equal(te.images[0], ds.images[1])
    for split in (tr, te):
        assert set(split.labels.tolist()) == set(range(4))


@pytest.mark.parametrize("num_classes, per_class, side, seed", [
    (2, 2, 4, 0), (2, 3, 17, 5), (3, 2, 9, 2**64 + 1), (4, 6, 8, 3), (8, 25, 12, 7),
    (11, 2, 17, 11),
])
def test_dataset_equals_the_per_sample_reference_bytewise(num_classes, per_class, side, seed):
    # 2 classes draw the other class mod 1, so every sample leans to the one other class
    got = zoo.make_synthetic_dataset(num_classes, per_class, side, seed)
    ref = util.per_sample_synthetic_dataset(num_classes, per_class, side, seed)
    assert got.images.dtype == ref.images.dtype and got.images.shape == ref.images.shape
    assert got.images.tobytes() == ref.images.tobytes()
    assert got.labels.dtype == ref.labels.dtype and np.array_equal(got.labels, ref.labels)


def test_dataset_validation():
    with pytest.raises(ValueError):
        zoo.LabeledDataset(np.zeros((2, 1, 4, 4), np.float32), np.zeros(3, np.int64), 2, 4)
    with pytest.raises(ValueError):
        zoo.LabeledDataset(np.zeros((2, 1, 4, 4), np.float32),
                           np.array([0, 5], np.int64), 2, 4)
    # one class, then 0 and 1 per class: with 1, each class sat in one split only
    for num_classes, per_class in [(1, 5), (2, 0), (2, 1)]:
        with pytest.raises(ValueError):
            zoo.make_synthetic_dataset(num_classes, per_class, 8, 0)
    for args in [(2.0, 2, 8), (2, True, 8), (2, 2, 3), (2, 2, 8.0)]:
        with pytest.raises(ValueError, match="must be an integer >= "):
            zoo.make_synthetic_dataset(*args, 0)


def test_dataset_is_linearly_learnable(monkeypatch):
    # a bare linear map beating 4x chance shows real class structure
    ds = _small_ds()
    model = zoo.build_model([nn.Flatten(), nn.Dense(64, 4)], (1, 8, 8), 4, seed=0)
    monkeypatch.setattr(zoo, "SHUFFLE_SEED", 1)
    trained = zoo.train(model, ds.train_split(), zoo.TrainConfig(epochs=25, learning_rate=0.1))
    assert zoo.accuracy(trained, ds.test_split()) > 0.5


def test_build_model_init_properties():
    layers = [nn.Conv2d(1, 4, 3, 1), nn.Relu(), nn.Flatten(), nn.Dense(4 * 36, 4)]
    m1 = zoo.build_model(layers, (1, 8, 8), 4, seed=5, model_id="t")
    m2 = zoo.build_model(layers, (1, 8, 8), 4, seed=5, model_id="t")
    m3 = zoo.build_model(layers, (1, 8, 8), 4, seed=6, model_id="t")
    assert np.array_equal(m1.theta, m2.theta)
    assert not np.array_equal(m1.theta, m3.theta)
    util.assert_views_of_theta(m1)
    conv_w, conv_b = m1.params[0]
    assert float(np.abs(conv_w).max()) <= 1.0 / np.sqrt(1 * 9) + 1e-7
    assert np.array_equal(conv_b, np.zeros(4, np.float32))
    w_fc, _ = m1.params[3]
    assert float(np.abs(w_fc).max()) <= 1.0 / np.sqrt(4 * 36) + 1e-7


@pytest.mark.parametrize("over", [
    {"epochs": 1.5}, {"epochs": True}, {"epochs": 0}, {"epochs": "3"},
    {"learning_rate": -0.1}, {"learning_rate": float("nan")}, {"learning_rate": float("inf")},
    {"learning_rate": True},
])
def test_train_config_refuses_a_bad_setting(over):
    # epochs=True trained one epoch and learning_rate=-0.1 trained uphill,
    # both with no error
    with pytest.raises(ValueError, match=next(iter(over))):
        zoo.TrainConfig(**over)


def test_train_refuses_an_empty_dataset():
    m = zoo.build_model([nn.Flatten(), nn.Dense(64, 4)], (1, 8, 8), 4, seed=2)
    empty = zoo.LabeledDataset(np.zeros((0, 1, 8, 8), np.float32), np.zeros(0, np.int64), 4, 8)
    with pytest.raises(ValueError, match="dataset is empty"):
        zoo.train(m, empty, zoo.TrainConfig(epochs=1))


def test_train_zero_lr_is_identity_bitwise():
    ds = _small_ds()
    m = zoo.build_model([nn.Flatten(), nn.Dense(64, 4)], (1, 8, 8), 4, seed=2)
    out = zoo.train(m, ds, zoo.TrainConfig(epochs=2, learning_rate=0.0))
    assert np.array_equal(m.theta, out.theta)


def test_train_does_not_mutate_input_model():
    ds = _small_ds()
    m = zoo.build_model([nn.Flatten(), nn.Dense(64, 4)], (1, 8, 8), 4, seed=2)
    before = m.theta.copy()
    zoo.train(m, ds, zoo.TrainConfig(epochs=1, learning_rate=0.5))
    assert np.array_equal(before, m.theta)


def test_train_reduces_loss_and_is_deterministic(monkeypatch):
    ds = _small_ds()
    m = zoo.build_model([nn.Flatten(), nn.Dense(64, 4)], (1, 8, 8), 4, seed=2)
    monkeypatch.setattr(zoo, "SHUFFLE_SEED", 4)
    rec = []
    t1 = zoo.train(m, ds.train_split(), zoo.TrainConfig(epochs=12), record=rec)
    assert len(rec) == 12 and rec[-1] < rec[0]
    t2 = zoo.train(m, ds.train_split(), zoo.TrainConfig(epochs=12))
    assert np.array_equal(t1.theta, t2.theta)


def test_train_diverged_error(monkeypatch):
    ds = _small_ds()
    m = zoo.build_model([nn.Flatten(), nn.Dense(64, 4)], (1, 8, 8), 4, seed=2)
    monkeypatch.setattr(zoo, "CLIP_NORM", np.inf)  # no norm is above it: the clip never fires
    with pytest.raises(TrainingDivergedError):
        with np.errstate(all="ignore"):
            zoo.train(m, ds, zoo.TrainConfig(epochs=8, learning_rate=1e8))


def test_accuracy_trivial_cases():
    ds = _small_ds()
    always_two = util.const_model((1, 8, 8), 4, hot=2)
    mask = ds.labels == 2
    hits = zoo.LabeledDataset(ds.images[mask], ds.labels[mask], 4, 8)
    miss = zoo.LabeledDataset(ds.images[~mask], ds.labels[~mask], 4, 8)
    assert zoo.accuracy(always_two, hits) == 1.0
    assert zoo.accuracy(always_two, miss) == 0.0
    empty = zoo.LabeledDataset(np.zeros((0, 1, 8, 8), np.float32), np.zeros(0, np.int64), 4, 8)
    with pytest.raises(ValueError):
        zoo.accuracy(always_two, empty)


# ---------------------------------------------------------------------------
# persistence

def test_model_round_trip_bitwise(tmp_path):
    m = util.tiny_model(11, 2)
    p = tmp_path / "m.bem"
    zoo.save_model(m, p)
    back = zoo.load_model(p)
    assert back.model_id == m.model_id and back.num_classes == m.num_classes
    assert np.array_equal(m.theta, back.theta)
    util.assert_views_of_theta(back)
    raw = p.read_bytes()  # the bytes after the header are the parameter vector
    assert raw[8 + int.from_bytes(raw[4:8], "little"):] == m.theta.astype("<f4").tobytes()
    x = util.rand_image(11)
    assert np.array_equal(nn.forward(m, x), nn.forward(back, x))
    p2 = tmp_path / "m2.bem"
    zoo.save_model(back, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_model_file_size_is_header_plus_params(tmp_path):
    m = util.tiny_model(1, 3)
    p = tmp_path / "m.bem"
    zoo.save_model(m, p)
    raw = p.read_bytes()
    (hlen,) = struct.unpack("<I", raw[4:8])
    assert len(raw) == 8 + hlen + 4 * m.param_count()


def test_model_load_fault_injection(tmp_path):
    m = util.tiny_model(0, 1)
    p = tmp_path / "m.bem"
    zoo.save_model(m, p)
    raw = p.read_bytes()

    def expect(blob, offset=None, contains=None):
        q = tmp_path / "bad.bem"
        q.write_bytes(blob)
        with pytest.raises(FormatError) as err:
            zoo.load_model(q)
        if offset is not None:
            assert err.value.offset == offset
        if contains is not None:
            assert contains in str(err.value)

    expect(b"XXXX" + raw[4:], offset=0, contains="magic")
    expect(raw[:6], offset=6, contains="length")
    expect(raw[:40], offset=40)
    expect(raw[:-4], offset=len(raw) - 4, contains="parameter")
    expect(raw + b"\x00\x00\x00", contains="trailing")
    corrupt = bytearray(raw)
    corrupt[10] ^= 0xFF
    expect(bytes(corrupt))

    def with_header(blob, edit):
        (hlen,) = struct.unpack("<I", blob[4:8])
        header = json.loads(blob[8 : 8 + hlen])
        edit(header)
        text = json.dumps(header).encode("utf-8")
        return blob[:4] + struct.pack("<I", len(text)) + text + blob[8 + hlen :]

    zoo.save_model(util.tiny_model(0, 3), p)
    conv_raw = p.read_bytes()
    expect(with_header(raw, lambda h: h["spec"].update(input_shape=["a"])), offset=8)
    expect(with_header(raw, lambda h: h["spec"].update(input_shape=[-1, -6, 6])), offset=8)
    expect(with_header(raw, lambda h: h.update(num_classes=5)), offset=8)
    expect(with_header(raw, lambda h: h.update(num_classes=4.7)), offset=8, contains="integers")
    expect(with_header(raw, lambda h: h["spec"].update(input_shape=[1, 6.9, 6])),
           offset=8, contains="integers")
    expect(with_header(raw, lambda h: h["spec"]["layers"][1].update(out_features=0)),
           offset=8, contains="out_features")
    expect(with_header(conv_raw, lambda h: h["spec"]["layers"][0].update(stride=0)),
           offset=8, contains="stride")
    for layers in ([1, 2, 3, 4], "abcd"):
        expect(with_header(raw, lambda h: h["spec"].update(layers=layers)),
               offset=8, contains="object")
    for size in (36.9, 36.0, True, "36"):
        expect(with_header(raw, lambda h: h["spec"]["layers"][1].update(in_features=size)),
               offset=8, contains="in_features")
    expect(with_header(conv_raw, lambda h: h["spec"]["layers"][0].update(stride=1.5)),
           offset=8, contains="stride")


def test_model_load_refuses_non_finite_parameters(tmp_path):
    m = util.tiny_model(0, 2)
    p = tmp_path / "m.bem"
    zoo.save_model(m, p)
    raw = p.read_bytes()
    (hlen,) = struct.unpack("<I", raw[4:8])
    start = 8 + hlen
    n = m.param_count()
    bias_at = start + 4 * (n - 1)  # the last bias of the final dense layer
    weight_at = start + 4 * 7  # a conv weight

    def load(edits):
        blob = bytearray(raw)
        for at, value in edits:
            blob[at : at + 4] = np.float32(value).tobytes()
        q = tmp_path / "bad.bem"
        q.write_bytes(bytes(blob))
        return zoo.load_model(q)

    for edits, first in (([(bias_at, np.nan)], bias_at),
                         ([(weight_at, np.inf)], weight_at),
                         ([(bias_at, np.nan), (weight_at, -np.inf)], weight_at)):
        with pytest.raises(FormatError, match="not finite") as err:
            load(edits)
        assert err.value.offset == first
    # corrupt exponent bits: a float32 whose eight exponent bits (the low
    # seven of its top byte, the top one of the next) are all set is inf or NaN
    blob = bytearray(raw)
    blob[weight_at + 3] |= 0x7F
    blob[weight_at + 2] |= 0x80
    q = tmp_path / "flipped.bem"
    q.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="not finite") as err:
        zoo.load_model(q)
    assert err.value.offset == weight_at
    # the largest finite float32 still loads
    big = load([(weight_at, np.finfo(np.float32).max)])
    assert np.finfo(np.float32).max in big.params[0][0]


def _model_files():
    files = []
    for arch in range(len(util.tiny_layer_menu())):
        with tempfile.TemporaryDirectory() as d:
            p = os.path.join(d, "m.bem")
            zoo.save_model(util.tiny_model(arch, arch), p)
            with open(p, "rb") as fh:
                files.append(fh.read())
    return files


_MODEL_FILES = _model_files()


@st.composite
def _mutated_file(draw, files):
    """One of files truncated, with one byte flipped, or with bytes inserted
    or appended."""
    raw = draw(st.sampled_from(files))
    kind = draw(st.sampled_from(["truncate", "flip", "insert", "append"]))
    at = draw(st.integers(0, len(raw) - 1))
    if kind == "truncate":
        return raw[:at]
    if kind == "flip":
        return raw[:at] + bytes([raw[at] ^ draw(st.integers(1, 255))]) + raw[at + 1 :]
    extra = draw(st.binary(min_size=1, max_size=16))
    return raw[:at] + extra + raw[at:] if kind == "insert" else raw + extra


@given(_mutated_file(_MODEL_FILES))
@settings(max_examples=200, deadline=None)
def test_a_mutated_model_file_loads_finite_or_raises_format_error(blob):
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "m.bem")
        with open(p, "wb") as fh:
            fh.write(blob)
        try:
            m = zoo.load_model(p)
        except FormatError:
            return
    assert np.isfinite(m.theta).all()


def _dataset_files():
    files = []
    for ds in (_small_ds(), zoo.make_synthetic_dataset(num_classes=2, per_class=2, side=4, seed=1)):
        with tempfile.TemporaryDirectory() as d:
            p = os.path.join(d, "d.bds")
            zoo.save_dataset(ds, p)
            with open(p, "rb") as fh:
                files.append(fh.read())
    return files


_DATASET_FILES = _dataset_files()


@given(_mutated_file(_DATASET_FILES))
@settings(max_examples=200, deadline=None)
def test_a_mutated_dataset_file_loads_in_range_or_raises_format_error(blob):
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "d.bds")
        with open(p, "wb") as fh:
            fh.write(blob)
        try:
            ds = zoo.load_dataset(p)
        except FormatError:
            return
    assert ds.images.dtype == np.float32 and ds.images.shape == (len(ds), 1, ds.side, ds.side)
    assert ((ds.images >= 0.0) & (ds.images <= 1.0)).all()
    assert ((ds.labels >= 0) & (ds.labels < ds.num_classes)).all()


def test_dataset_round_trip_bitwise(tmp_path):
    ds = _small_ds()
    p = tmp_path / "d.bds"
    zoo.save_dataset(ds, p)
    back = zoo.load_dataset(p)
    assert np.array_equal(ds.images, back.images)
    assert np.array_equal(ds.labels, back.labels)
    assert (back.num_classes, back.side) == (4, 8)
    p2 = tmp_path / "d2.bds"
    zoo.save_dataset(back, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_dataset_file_matches_documented_layout(tmp_path):
    # packed by hand as the module docstring specifies: magic, u32le count /
    # num_classes / side, then per sample a u16le label and the f32le pixels
    pixels = [np.linspace(0.0, 1.0, 9, dtype=np.float32).reshape(3, 3),
              np.full((3, 3), 0.25, np.float32)]
    blob = b"BDS1" + struct.pack("<III", 2, 5, 3)
    for label, img in zip((4, 1), pixels):
        blob += struct.pack("<H", label) + struct.pack("<9f", *img.ravel())
    p = tmp_path / "hand.bds"
    p.write_bytes(blob)
    ds = zoo.load_dataset(p)
    assert ds.labels.tolist() == [4, 1] and (ds.num_classes, ds.side) == (5, 3)
    assert ds.images.shape == (2, 1, 3, 3) and ds.images.dtype == np.float32
    assert np.array_equal(ds.images[:, 0], np.stack(pixels))
    out = tmp_path / "out.bds"
    zoo.save_dataset(ds, out)
    assert out.read_bytes() == blob


def test_save_dataset_refuses_label_beyond_u16(tmp_path):
    ds = zoo.LabeledDataset(np.zeros((2, 1, 4, 4), np.float32),
                            np.array([0, 65536], np.int64), 70000, 4)
    with pytest.raises(ValueError, match="16-bit"):
        zoo.save_dataset(ds, tmp_path / "d.bds")


def test_dataset_load_fault_injection(tmp_path):
    ds = _small_ds()
    p = tmp_path / "d.bds"
    zoo.save_dataset(ds, p)
    raw = p.read_bytes()
    sample = 2 + 8 * 8 * 4
    bad_label = bytearray(raw)
    bad_label[16 + 5 * sample : 18 + 5 * sample] = struct.pack("<H", 9)
    nan_pixel = bytearray(raw)
    nan_pixel[16 + 2 * sample + 14 : 20 + 2 * sample + 14] = struct.pack("<f", float("nan"))
    for blob, offset in ((b"ZZZZ" + raw[4:], 0), (raw[:10], 10), (raw[:-8], len(raw) - 8),
                         (bytes(bad_label), 16 + 5 * sample),
                         (bytes(nan_pixel), 16 + 2 * sample + 2),
                         # no samples, but a side whose record NumPy cannot describe
                         (b"BDS1" + struct.pack("<III", 0, 4, 70000), 12)):
        q = tmp_path / "bad.bds"
        q.write_bytes(blob)
        with pytest.raises(FormatError) as err:
            zoo.load_dataset(q)
        assert err.value.offset == offset


# ---------------------------------------------------------------------------
# default zoo

def test_default_zoo_diversity():
    specs = zoo.default_zoo_specs(12, 8)
    ids = [sid for sid, _ in specs]
    assert len([i for i in ids if not i.startswith("victim-")]) == 6
    assert len([i for i in ids if i.startswith("victim-")]) == 2
    families = {"conv" if any(isinstance(l, nn.Conv2d) for l in layers) else "dense"
                for _, layers in specs}
    assert families == {"conv", "dense"}
    assert len({len(layers) for _, layers in specs}) >= 2
    counts = [zoo.build_model(layers, (1, 12, 12), 8, 0, sid).param_count()
              for sid, layers in specs]
    assert len(set(counts)) == len(counts)


def test_default_zoo_stacks_at_side_12():
    conv, relu, flat, dense = nn.Conv2d, nn.Relu(), nn.Flatten(), nn.Dense
    assert zoo.default_zoo_specs(12, 8) == [
        ("cnn-a", [conv(1, 8, 3, 1), relu, flat, dense(800, 8)]),
        ("cnn-b", [conv(1, 6, 3, 1), relu, conv(6, 10, 3, 2), relu, flat, dense(160, 8)]),
        ("cnn-c", [conv(1, 10, 5, 2), relu, flat, dense(160, 24), relu, dense(24, 8)]),
        ("mlp-a", [flat, dense(144, 48), relu, dense(48, 8)]),
        ("mlp-b", [flat, dense(144, 72), relu, dense(72, 36), relu, dense(36, 8)]),
        ("mlp-c", [flat, dense(144, 30), relu, dense(30, 8)]),
        ("victim-cnn", [conv(1, 7, 4, 1), relu, conv(7, 7, 3, 2), relu, flat, dense(112, 8)]),
        ("victim-mlp", [flat, dense(144, 80), relu, dense(80, 40), relu, dense(40, 8)]),
    ]


def test_manifest_id_helpers():
    manifest = {"models": [{"id": "cnn-a"}, {"id": "victim-cnn"}, {"id": "mlp-a"}]}
    assert zoo.surrogate_ids(manifest) == ["cnn-a", "mlp-a"]


def test_model_view_properties():
    ds = zoo.make_synthetic_dataset(8, 4, 12, seed=7)
    assert zoo.model_view(ds, "victim-cnn", 7) is ds
    assert zoo.model_view(ds, "victim-mlp", 7) is ds
    va = zoo.model_view(ds, "cnn-a", 7)
    vb = zoo.model_view(ds, "cnn-b", 7)
    assert np.array_equal(va.images, zoo.model_view(ds, "cnn-a", 7).images)
    assert np.array_equal(va.labels, ds.labels)
    assert not np.array_equal(va.images, ds.images)
    assert not np.array_equal(va.images, vb.images)
    kept = np.mean(np.all(np.isclose(va.images, ds.images), axis=0))
    assert 0.2 < kept < 0.6  # roughly the configured band width
    grey_hard = int(np.sum(va.images[0] == np.float32(0.5)))
    grey_soft = int(np.sum(zoo.model_view(ds, "mlp-b", 7).images[0] == np.float32(0.5)))
    assert grey_hard > grey_soft


@pytest.mark.parametrize("seed", ["missing", None, "7", 7.9, True, [7]])
def test_train_zoo_refuses_a_manifest_seed_that_is_not_an_integer(tmp_path, seed):
    # "7", 7.9 and true used to train silently as seeds 7, 7 and 1
    d = str(tmp_path)
    zoo.build_zoo(d, num_classes=2, per_class=2, side=8)
    path = os.path.join(d, "manifest.json")
    manifest = zoo.load_manifest(path)
    if seed == "missing":
        del manifest["seed"]
    else:
        manifest["seed"] = seed
    zoo.save_manifest(manifest, path)
    names = ["manifest.json", *(e["file"] for e in manifest["models"])]
    before = [(tmp_path / name).read_bytes() for name in names]
    with pytest.raises(FormatError, match=re.escape(f"manifest {path}: seed")):
        zoo.train_zoo(d)
    assert [(tmp_path / name).read_bytes() for name in names] == before


# ---------------------------------------------------------------------------
# session zoo (built once by the fixture)

def test_zoo_dir_layout(zoo_dir):
    assert os.path.exists(os.path.join(zoo_dir, "manifest.json"))
    assert os.path.exists(os.path.join(zoo_dir, "dataset.bds"))
    manifest = zoo.load_manifest(os.path.join(zoo_dir, "manifest.json"))
    assert [m["id"] for m in manifest["models"]] == sorted(m["id"] for m in manifest["models"])
    for entry in manifest["models"]:
        assert os.path.exists(os.path.join(zoo_dir, entry["file"]))


def test_zoo_members_reach_competent_accuracy(zoo_bundle):
    manifest, _, _ = zoo_bundle
    for entry in manifest["models"]:
        assert entry["clean_accuracy"] >= 0.85, entry["id"]


def test_zoo_manifest_accuracy_recomputes(zoo_bundle):
    manifest, dataset, models = zoo_bundle
    test_set = dataset.test_split()
    for entry in manifest["models"][:3]:
        assert zoo.accuracy(models[entry["id"]], test_set) == entry["clean_accuracy"]


def test_zoo_param_counts_match_manifest(zoo_bundle):
    manifest, _, models = zoo_bundle
    for entry in manifest["models"]:
        assert models[entry["id"]].param_count() == entry["param_count"]

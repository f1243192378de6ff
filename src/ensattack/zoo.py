"""Desk-scale model zoo: synthetic data, training, and persistence.

The zoo supplies the surrogate ensembles and held-out victims used by the
attack. Images are single-channel, side x side, pixels in [0,1]. Every
stochastic choice draws from a SplitMix64 stream keyed by (seed, tag), so
zoo builds are bitwise reproducible within one build of the package.

File formats
------------
Model file (magic ``BEM1``):
    4 bytes magic, u32le header length, UTF-8 JSON header
    {"spec": {"input_shape": [...], "layers": [...]}, "num_classes": C,
     "id": str}, then each parameter tensor as little-endian float32 in
    declaration order (weight before bias per layer).
Dataset file (magic ``BDS1``):
    4 bytes magic, u32le count / num_classes / side, then per sample a
    u16le label followed by side*side little-endian float32 pixels.
"""

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import FormatError, LayerSpecError, TrainingDivergedError
from .prng import stream

# Class templates live in this pixel band; per-sample noise is uniform in
# +/- NOISE_AMP. Each image also leans toward one other class template by a
# per-sample mixing weight in [0, MIX_MAX), drawn as MIX_MAX * u**MIX_POWER
# so mass concentrates near the class boundary. The band/mix/noise ratios
# control how hard classification and attack are relative to the budget.
TEMPLATE_LOW = 0.10
TEMPLATE_HIGH = 0.90
NOISE_AMP = 0.10
TEMPLATE_GRID = 4
MIX_MAX = 0.47
MIX_POWER = 0.45
# Surrogates train on per-model pixel views: each keeps the band of the
# shared seeded field below where (field - offset/6) mod 1 < VIEW_WIDTH and
# greys out the rest, so members rely on different image regions and
# reweighting them steers the ensemble gradient. VIEW_SOFT members only
# attenuate off-band pixels instead of erasing them (the deep mlp needs the
# residual signal to stay accurate on full images).
VIEW_WIDTH = 0.40
VIEW_BANDS = {"cnn-a": 0, "cnn-b": 1, "cnn-c": 2, "mlp-a": 3, "mlp-b": 4, "mlp-c": 5}
VIEW_SOFT = {"mlp-b": 0.45}


@dataclass
class LabeledDataset:
    images: np.ndarray  # (n, 1, side, side) float32 in [0,1]
    labels: np.ndarray  # (n,) int64 in [0, num_classes)
    num_classes: int
    side: int

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise ValueError("images and labels must have equal length")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("labels out of range")

    def __len__(self):
        return len(self.labels)

    def train_split(self) -> "LabeledDataset":
        return self._by_parity(0)

    def test_split(self) -> "LabeledDataset":
        return self._by_parity(1)

    def _by_parity(self, parity: int) -> "LabeledDataset":
        idx = np.arange(len(self)) % 2 == parity
        return LabeledDataset(self.images[idx], self.labels[idx], self.num_classes, self.side)


BATCH_SIZE = 16
WEIGHT_DECAY = 1e-4


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    learning_rate: float = 0.1
    seed: int = 0
    clip_norm: float = 5.0  # global grad-norm clip per batch; 0 disables

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be positive")


def _bilinear_upsample(grid: np.ndarray, side: int) -> np.ndarray:
    r = grid.shape[0]
    pos = np.linspace(0.0, r - 1, side)
    i0 = np.floor(pos).astype(int)
    i1 = np.minimum(i0 + 1, r - 1)
    f = pos - i0
    rows = grid[i0, :] * (1 - f)[:, None] + grid[i1, :] * f[:, None]
    out = rows[:, i0] * (1 - f)[None, :] + rows[:, i1] * f[None, :]
    return out.astype(np.float32)


def make_synthetic_dataset(num_classes: int, per_class: int, side: int, seed: int) -> LabeledDataset:
    """Class-conditioned smoothed patterns plus per-sample seeded noise.

    Sample index c*per_class + i holds the i-th sample of class c; the
    train/test convention is parity of that index (even train, odd test).
    """
    if num_classes < 2 or side < 4:
        raise ValueError("need num_classes >= 2 and side >= 4")
    images = np.empty((num_classes * per_class, 1, side, side), dtype=np.float32)
    labels = np.empty(num_classes * per_class, dtype=np.int64)
    span = np.float32(TEMPLATE_HIGH - TEMPLATE_LOW)
    templates = []
    for c in range(num_classes):
        grid = stream(seed, f"template/{c}").uniform((TEMPLATE_GRID, TEMPLATE_GRID))
        templates.append(TEMPLATE_LOW + span * _bilinear_upsample(grid, side))
    for c in range(num_classes):
        for i in range(per_class):
            s = stream(seed, f"noise/{c}/{i}")
            other = int(s.integer(num_classes - 1))
            other += other >= c
            # mix < 0.5, so the nearest template (the label) stays c
            mix = np.float32(MIX_MAX * float(s.uniform((), 0.0, 1.0)) ** MIX_POWER)
            base = (1 - mix) * templates[c] + mix * templates[other]
            noise = s.uniform((side, side), -NOISE_AMP, NOISE_AMP)
            images[c * per_class + i, 0] = np.clip(base + noise, 0.0, 1.0).astype(np.float32)
            labels[c * per_class + i] = c
    return LabeledDataset(images, labels, num_classes, side)


def build_model(layers, input_shape, num_classes: int, seed: int, model_id: str = "") -> nn.Model:
    """Seeded uniform fan-in init: weights U(-1/sqrt(fan_in), 1/sqrt(fan_in)),
    biases zero."""
    nn.compose_shapes(layers, input_shape)
    params = []
    for idx, layer in enumerate(layers):
        if not nn.param_shapes(layer):
            params.append(())
            continue
        w_shape, b_shape = nn.param_shapes(layer)
        bound = 1.0 / np.sqrt(math.prod(w_shape[1:]))
        w = stream(seed, f"init/{model_id}/{idx}/w").uniform(w_shape, -bound, bound)
        params.append((w, np.zeros(b_shape, dtype=np.float32)))
    return nn.Model(layers, params, input_shape, num_classes, model_id)


def _ce_grad(logits: np.ndarray, label: int) -> tuple:
    p = nn.softmax(logits)
    g = p.copy()
    g[label] -= np.float32(1.0)
    # stable -log softmax[label]
    m = logits.max()
    loss = float(m + np.log(np.exp(logits - m).sum()) - logits[label])
    return loss, g


def train(model: nn.Model, dataset: LabeledDataset, cfg: TrainConfig, record=None) -> nn.Model:
    """Minibatch SGD on cross-entropy. Deterministic given cfg.seed; batch
    order reshuffled per epoch from its own stream. If ``record`` is a list,
    the per-epoch mean loss is appended to it."""
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    params = [tuple(a.copy() for a in group) for group in model.params]
    lr = cfg.learning_rate
    n = len(dataset)
    for epoch in range(cfg.epochs):
        order = stream(cfg.seed, f"shuffle/{epoch}").permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, BATCH_SIZE):
            batch = order[start : start + BATCH_SIZE]
            work = model.with_params(params)
            grads = [tuple(np.zeros_like(a) for a in group) for group in params]
            for j in batch:
                acts = nn._forward_saved(work, dataset.images[j])
                loss, g_logits = _ce_grad(acts[-1], int(dataset.labels[j]))
                epoch_loss += loss
                _, pgrads = nn.backward(work, acts, g_logits, want_param_grads=True)
                for gi, pg in zip(grads, pgrads):
                    for acc, val in zip(gi, pg):
                        acc += val
            inv = 1.0 / len(batch)
            if cfg.clip_norm > 0:
                sq = sum(float((acc * acc).sum()) for gi in grads for acc in gi)
                gnorm = np.sqrt(sq) * inv
                if gnorm > cfg.clip_norm:
                    inv *= cfg.clip_norm / gnorm
            scale = np.float32(lr * inv)
            decay = np.float32(lr * WEIGHT_DECAY)
            for group, gi in zip(params, grads):
                for a, acc in zip(group, gi):
                    a -= scale * acc + decay * a
        mean_loss = epoch_loss / n
        if not np.isfinite(mean_loss):
            raise TrainingDivergedError(f"loss became non-finite at epoch {epoch}")
        if record is not None:
            record.append(mean_loss)
    return model.with_params(params)


def accuracy(model: nn.Model, dataset: LabeledDataset) -> float:
    """Top-1 accuracy; argmax ties break toward the lowest class index."""
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    hits = 0
    for img, label in zip(dataset.images, dataset.labels):
        hits += int(np.argmax(nn.forward(model, img)) == label)
    return hits / len(dataset)


# ---------------------------------------------------------------------------
# persistence

_MAGIC_MODEL = b"BEM1"
_MAGIC_DATA = b"BDS1"


def save_model(model: nn.Model, path) -> None:
    header = {
        "spec": {
            "input_shape": list(model.input_shape),
            "layers": [nn.layer_to_dict(layer) for layer in model.layers],
        },
        "num_classes": model.num_classes,
        "id": model.model_id,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC_MODEL)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for arr in model.param_arrays():
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_model(path) -> nn.Model:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _MAGIC_MODEL:
        raise FormatError(f"bad magic {raw[:4]!r}, expected {_MAGIC_MODEL!r}", offset=0)
    if len(raw) < 8:
        raise FormatError("truncated header length field", offset=len(raw))
    (hlen,) = struct.unpack("<I", raw[4:8])
    if len(raw) < 8 + hlen:
        raise FormatError("truncated JSON header", offset=len(raw))
    try:
        header = json.loads(raw[8 : 8 + hlen].decode("utf-8"))
        layers = [nn.layer_from_dict(d) for d in header["spec"]["layers"]]
        input_shape = tuple(header["spec"]["input_shape"])
        num_classes = header["num_classes"]
        if not all(type(d) is int for d in (*input_shape, num_classes)):
            raise ValueError(f"input_shape {list(input_shape)} and num_classes "
                             f"{num_classes!r} must be integers")
        model_id = header["id"]
        nn.compose_shapes(layers, input_shape)
    except (ValueError, KeyError, TypeError, LayerSpecError) as exc:
        raise FormatError(f"unreadable header: {exc}", offset=8) from None
    offset = 8 + hlen
    params = []
    for layer in layers:
        group = []
        for shape in nn.param_shapes(layer):
            nbytes = math.prod(shape) * 4
            if offset + nbytes > len(raw):
                raise FormatError("truncated parameter data", offset=len(raw))
            group.append(np.frombuffer(raw[offset : offset + nbytes], dtype="<f4").reshape(shape))
            offset += nbytes
        params.append(tuple(group))
    if offset != len(raw):
        raise FormatError(f"{len(raw) - offset} trailing bytes", offset=offset)
    try:
        return nn.Model(layers, params, input_shape, num_classes, model_id)
    except LayerSpecError as exc:
        raise FormatError(f"unreadable header: {exc}", offset=8) from None


def _record_dtype(side: int) -> np.dtype:
    """One dataset sample as stored: a u16le label, then the pixels."""
    return np.dtype([("label", "<u2"), ("pixels", "<f4", (side, side))])


def save_dataset(dataset: LabeledDataset, path) -> None:
    if len(dataset) and not 0 <= dataset.labels.min() <= dataset.labels.max() <= 0xFFFF:
        raise ValueError("labels must fit in an unsigned 16-bit field")
    records = np.empty(len(dataset), dtype=_record_dtype(dataset.side))
    records["label"] = dataset.labels
    records["pixels"] = dataset.images.reshape(len(dataset), dataset.side, dataset.side)
    with open(path, "wb") as fh:
        fh.write(_MAGIC_DATA)
        fh.write(struct.pack("<III", len(dataset), dataset.num_classes, dataset.side))
        fh.write(records.tobytes())


def load_dataset(path) -> LabeledDataset:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _MAGIC_DATA:
        raise FormatError(f"bad magic {raw[:4]!r}, expected {_MAGIC_DATA!r}", offset=0)
    if len(raw) < 16:
        raise FormatError("truncated counts", offset=len(raw))
    count, num_classes, side = struct.unpack("<III", raw[4:16])
    sample_bytes = 2 + side * side * 4
    if len(raw) != 16 + count * sample_bytes:
        raise FormatError("payload size does not match counts", offset=len(raw))
    try:
        records = np.frombuffer(raw, dtype=_record_dtype(side), offset=16)
    except ValueError:  # only an empty file can claim a side this large
        raise FormatError(f"side {side} is too large", offset=12) from None
    labels = records["label"].astype(np.int64)
    images = records["pixels"].reshape(count, 1, side, side).astype(np.float32)
    bad = np.flatnonzero(labels >= num_classes)
    if bad.size:
        i = int(bad[0])
        raise FormatError(f"sample {i} has label {labels[i]} but {num_classes} classes",
                          offset=16 + i * sample_bytes)
    # NaN fails every comparison, so only the negated form rejects it
    in_range = (images >= 0.0) & (images <= 1.0)
    bad = np.flatnonzero(~in_range.all(axis=(1, 2, 3)))
    if bad.size:
        i = int(bad[0])
        raise FormatError(f"sample {i} has pixels outside [0,1] or not finite",
                          offset=16 + i * sample_bytes + 2)
    return LabeledDataset(images, labels, num_classes, side)


# ---------------------------------------------------------------------------
# default zoo

def default_zoo_specs(side: int, num_classes: int):
    """Architecture family: six surrogate candidates plus two held-out
    victims with deliberately different shapes. Returns [(id, layers)] with
    surrogate ids first; ids starting with "victim-" are never surrogates."""
    c = num_classes

    def conv_out(h, k, s):
        return (h - k) // s + 1

    flat = side * side
    a1 = conv_out(side, 3, 1)
    b1 = conv_out(side, 3, 1)
    b2 = conv_out(b1, 3, 2)
    c1 = conv_out(side, 5, 2)
    v1 = conv_out(side, 4, 1)
    v2 = conv_out(v1, 3, 2)
    return [
        ("cnn-a", [nn.Conv2d(1, 8, 3, 1), nn.Relu(), nn.Flatten(), nn.Dense(8 * a1 * a1, c)]),
        ("cnn-b", [nn.Conv2d(1, 6, 3, 1), nn.Relu(), nn.Conv2d(6, 10, 3, 2), nn.Relu(),
                   nn.Flatten(), nn.Dense(10 * b2 * b2, c)]),
        ("cnn-c", [nn.Conv2d(1, 10, 5, 2), nn.Relu(), nn.Flatten(),
                   nn.Dense(10 * c1 * c1, 24), nn.Relu(), nn.Dense(24, c)]),
        ("mlp-a", [nn.Flatten(), nn.Dense(flat, 48), nn.Relu(), nn.Dense(48, c)]),
        ("mlp-b", [nn.Flatten(), nn.Dense(flat, 72), nn.Relu(), nn.Dense(72, 36), nn.Relu(),
                   nn.Dense(36, c)]),
        ("mlp-c", [nn.Flatten(), nn.Dense(flat, 30), nn.Relu(), nn.Dense(30, c)]),
        ("victim-cnn", [nn.Conv2d(1, 7, 4, 1), nn.Relu(), nn.Conv2d(7, 7, 3, 2), nn.Relu(),
                        nn.Flatten(), nn.Dense(7 * v2 * v2, c)]),
        ("victim-mlp", [nn.Flatten(), nn.Dense(flat, 80), nn.Relu(), nn.Dense(80, 40), nn.Relu(),
                        nn.Dense(40, c)]),
    ]


# Masked views make the surrogates' task harder, so they get a longer,
# gentler schedule; the victim conv stack also needs the smaller step
# because conv parameter gradients sum over all spatial positions.
DEFAULT_TRAIN = TrainConfig(epochs=100, learning_rate=0.1)
_SURROGATE_TRAIN = TrainConfig(epochs=250, learning_rate=0.05)
TRAIN_SCHEDULE = {
    "cnn-a": _SURROGATE_TRAIN,
    "cnn-b": _SURROGATE_TRAIN,
    "cnn-c": _SURROGATE_TRAIN,
    "mlp-a": _SURROGATE_TRAIN,
    "mlp-b": _SURROGATE_TRAIN,
    "mlp-c": _SURROGATE_TRAIN,
    "victim-cnn": TrainConfig(epochs=150, learning_rate=0.05),
}


def model_view(dataset: LabeledDataset, model_id: str, seed: int) -> LabeledDataset:
    """Training view for one model: its VIEW_BANDS band of the shared seeded
    field is kept, everything else is greyed toward 0.5 (fully for hard
    views, partially for VIEW_SOFT members). Ids without a band entry,
    including the victims, see the full images."""
    if model_id not in VIEW_BANDS:
        return dataset
    field = stream(seed, "view/0").uniform((dataset.side, dataset.side))
    offset = VIEW_BANDS[model_id] / len(VIEW_BANDS)
    mask = ((field - offset) % 1.0 < VIEW_WIDTH).astype(np.float32)
    mask = mask + (1 - mask) * np.float32(VIEW_SOFT.get(model_id, 0.0))
    images = dataset.images * mask + np.float32(0.5) * (1 - mask)
    return LabeledDataset(images.astype(np.float32), dataset.labels,
                          dataset.num_classes, dataset.side)


def surrogate_ids(manifest: dict):
    return [m["id"] for m in manifest["models"] if not m["id"].startswith("victim-")]


def save_manifest(manifest: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_manifest(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_zoo(zoo_dir):
    """Returns (manifest, dataset, {model_id: Model}) for a built zoo dir."""
    import os

    manifest = load_manifest(os.path.join(zoo_dir, "manifest.json"))
    dataset = load_dataset(os.path.join(zoo_dir, manifest["dataset"]))
    models = {}
    for entry in manifest["models"]:
        models[entry["id"]] = load_model(os.path.join(zoo_dir, entry["file"]))
    return manifest, dataset, models


def build_zoo(zoo_dir, num_classes: int = 8, per_class: int = 25, side: int = 12,
              seed: int = 7) -> dict:
    """Creates dataset + untrained models + manifest under zoo_dir."""
    import os

    os.makedirs(os.path.join(zoo_dir, "models"), exist_ok=True)
    dataset = make_synthetic_dataset(num_classes, per_class, side, seed)
    save_dataset(dataset, os.path.join(zoo_dir, "dataset.bds"))
    entries = []
    for model_id, layers in default_zoo_specs(side, num_classes):
        model = build_model(layers, (1, side, side), num_classes, seed, model_id)
        rel = os.path.join("models", f"{model_id}.bem")
        save_model(model, os.path.join(zoo_dir, rel))
        entries.append({
            "id": model_id,
            "file": rel,
            "spec": {"input_shape": [1, side, side],
                     "layers": [nn.layer_to_dict(l) for l in layers]},
            "num_classes": num_classes,
            "param_count": model.param_count(),
            "clean_accuracy": None,
        })
    manifest = {
        "dataset": "dataset.bds",
        "num_classes": num_classes,
        "side": side,
        "seed": seed,
        "models": sorted(entries, key=lambda e: e["id"]),
    }
    save_manifest(manifest, os.path.join(zoo_dir, "manifest.json"))
    return manifest


def train_zoo(zoo_dir, schedule: dict | None = None) -> dict:
    """Trains every model on the train split, records test accuracy in the
    manifest, and rewrites the weight files in place. ``schedule`` maps
    model id to its TrainConfig (TRAIN_SCHEDULE by default); ids it omits
    train with DEFAULT_TRAIN."""
    import os

    schedule = TRAIN_SCHEDULE if schedule is None else schedule
    manifest, dataset, models = load_zoo(zoo_dir)
    train_set = dataset.train_split()
    test_set = dataset.test_split()
    for entry in manifest["models"]:
        model_cfg = schedule.get(entry["id"], DEFAULT_TRAIN)
        view = model_view(train_set, entry["id"], manifest["seed"])
        model = train(models[entry["id"]], view, model_cfg)
        entry["clean_accuracy"] = accuracy(model, test_set)
        save_model(model, os.path.join(zoo_dir, entry["file"]))
    save_manifest(manifest, os.path.join(zoo_dir, "manifest.json"))
    return manifest

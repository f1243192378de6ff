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
     "id": str}, then the model's parameter vector ``Model.theta`` as
    little-endian float32: every parameter in declaration order, weight
    before bias per layer, each array in C order.
Dataset file (magic ``BDS1``):
    4 bytes magic, u32le count / num_classes / side, then per sample a
    u16le label followed by side*side little-endian float32 pixels.
"""

import itertools
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import FormatError, LayerSpecError, TrainingDivergedError, check_int, check_number
from .losses import cross_entropy
from .prng import draws, stream, uniform_from_bits

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
CLIP_NORM = 5.0  # global gradient-norm clip per minibatch
SHUFFLE_SEED = 0  # keys the per-epoch minibatch order


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    learning_rate: float = 0.1

    def __post_init__(self):
        check_int("epochs", self.epochs, 1)
        check_number("learning_rate", self.learning_rate, positive=False)


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
    train/test convention is parity of that index (even train, odd test),
    so ``per_class`` must be at least 2 for both splits to hold every class.
    """
    check_int("num_classes", num_classes, 2)
    check_int("per_class", per_class, 2)
    check_int("side", side, 4)
    span = np.float32(TEMPLATE_HIGH - TEMPLATE_LOW)
    templates = np.stack([
        TEMPLATE_LOW + span * _bilinear_upsample(
            stream(seed, f"template/{c}").uniform((TEMPLATE_GRID, TEMPLATE_GRID)), side)
        for c in range(num_classes)])
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    # sample c*per_class + i draws from stream noise/{c}/{i}: first the other
    # class (Stream.integer's rule), then the mixing weight, then the noise
    bits = draws(seed, [f"noise/{c}/{i}" for c in range(num_classes) for i in range(per_class)],
                 2 + side * side)
    other = (bits[:, 0] % np.uint64(num_classes - 1)).astype(np.int64)
    other += other >= labels
    # mix < 0.5, so the nearest template (the label) stays c; the power is
    # libm's, one Python float per sample, which NumPy's SIMD power may not match
    mix = np.array([MIX_MAX * u ** MIX_POWER for u in uniform_from_bits(bits[:, 1]).tolist()],
                   dtype=np.float32)[:, None, None]
    base = (1 - mix) * templates[labels] + mix * templates[other]
    noise = uniform_from_bits(bits[:, 2:], -NOISE_AMP, NOISE_AMP).reshape(-1, side, side)
    images = np.clip(base + noise, 0.0, 1.0)[:, None]
    return LabeledDataset(images, labels, num_classes, side)


def build_model(layers, input_shape, num_classes: int, seed: int, model_id: str = "") -> nn.Model:
    """Seeded uniform fan-in init: weights U(-1/sqrt(fan_in), 1/sqrt(fan_in)),
    biases zero."""
    theta = np.zeros(nn.theta_size(layers), np.float32)
    for idx, group in enumerate(nn.param_views(layers, theta)):
        if group:
            w = group[0]
            bound = 1.0 / np.sqrt(math.prod(w.shape[1:]))
            w[...] = stream(seed, f"init/{model_id}/{idx}/w").uniform(w.shape, -bound, bound)
    return nn.Model(layers, theta, input_shape, num_classes, model_id)


def train(model: nn.Model, dataset: LabeledDataset, cfg: TrainConfig, record=None) -> nn.Model:
    """Minibatch SGD on the targeted cross-entropy toward each true label,
    with weight decay and a global gradient-norm clip at CLIP_NORM.
    Deterministic: the batch order is reshuffled per epoch from its own
    stream of SHUFFLE_SEED. If ``record`` is a list, the per-epoch mean
    loss is appended to it. ShapeError if the images do not fit the
    model's input.

    Each minibatch is one batched forward, loss and backward. The trained
    weights are bitwise those of a per-sample loop: every item's gradient
    is its single-sample gradient, the parameter gradients are summed over
    the minibatch in batch order from +0.0, and the epoch loss adds the
    per-sample losses in sample order.

    The parameters live in one writable copy of ``model.theta`` for the
    whole call, and the passes run on one working model over a read-only
    view of it, built once (``nn._working_model``). Each step takes the
    gradient as one vector laid out as theta and clips on the per-array
    squared norms in declaration order, each summed over the array's slice
    of that vector; the slices are fixed once per call, so a step cuts its
    gradient only inside ``nn.backward``. It then updates the whole vector
    in place with one elementwise expression, which gives each element the
    bits the per-array update gave. The returned model holds a copy of the
    vector, so it shares no memory with it."""
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    images = nn._check_input(model, dataset.images, batch=True)
    theta, work = nn._working_model(model)
    bounds = [0, *itertools.accumulate(a.size for group in work.params for a in group)]
    cuts = [slice(lo, hi) for lo, hi in itertools.pairwise(bounds)]
    lr = cfg.learning_rate
    decay = np.float32(lr * WEIGHT_DECAY)
    n = len(dataset)
    for epoch in range(cfg.epochs):
        order = stream(SHUFFLE_SEED, f"shuffle/{epoch}").permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, BATCH_SIZE):
            batch = order[start : start + BATCH_SIZE]
            acts = nn._forward_saved(work, images[batch])
            sample_losses, g_logits = cross_entropy(acts[-1], dataset.labels[batch])
            for loss in sample_losses.tolist():
                epoch_loss += loss
            _, dtheta = nn.backward(work, acts, g_logits, want_param_grads=True)
            inv = 1.0 / len(batch)
            sq = sum(float((dtheta[cut] * dtheta[cut]).sum()) for cut in cuts)
            gnorm = np.sqrt(sq) * inv
            if gnorm > CLIP_NORM:
                inv *= CLIP_NORM / gnorm
            scale = np.float32(lr * inv)
            theta -= scale * dtheta + decay * theta
        mean_loss = epoch_loss / n
        if not np.isfinite(mean_loss):
            raise TrainingDivergedError(f"loss became non-finite at epoch {epoch}")
        if record is not None:
            record.append(mean_loss)
    return model.with_params(theta)


def accuracy(model: nn.Model, dataset: LabeledDataset) -> float:
    """Top-1 accuracy from one batched forward over the whole dataset;
    argmax ties break toward the lowest class index."""
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    logits = nn._forward_saved(model, nn._check_input(model, dataset.images, batch=True))[-1]
    return int(np.sum(np.argmax(logits, axis=1) == dataset.labels)) / len(dataset)


# ---------------------------------------------------------------------------
# persistence

_MAGIC_MODEL = b"BEM1"
_MAGIC_DATA = b"BDS1"


def _spec(model: nn.Model) -> dict:
    """A model file's JSON header: the stack, the class count and the id.
    Every manifest entry holds these keys too."""
    return {
        "spec": {
            "input_shape": list(model.input_shape),
            "layers": [nn.layer_to_dict(layer) for layer in model.layers],
        },
        "num_classes": model.num_classes,
        "id": model.model_id,
    }


def save_model(model: nn.Model, path) -> None:
    blob = json.dumps(_spec(model), sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC_MODEL)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(model.theta.astype("<f4", copy=False).tobytes())


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
    start = 8 + hlen
    end = start + 4 * nn.theta_size(layers)
    if end > len(raw):
        raise FormatError("truncated parameter data", offset=len(raw))
    if end != len(raw):
        raise FormatError(f"{len(raw) - end} trailing bytes", offset=end)
    # a bytes slice of its own is aligned, which the checks below run faster on
    payload = np.frombuffer(raw[start:end], dtype="<f4")
    finite = np.isfinite(payload)
    if not finite.all():
        first = int(np.argmin(finite))
        raise FormatError(f"parameter {first} is {payload[first]}, not finite",
                          offset=start + 4 * first)
    try:
        return nn.Model(layers, payload, input_shape, num_classes, model_id)
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
    surrogate ids first; ids starting with "victim-" are never surrogates.

    Each stack is its feature layers, a ``Flatten``, then dense layers of
    the listed widths and ``num_classes``, with a ``Relu`` between them. The
    first dense layer takes what ``nn.compose_shapes`` says the flattened
    features hold, so a side too small for the conv layers (below 6) raises
    LayerSpecError."""
    def stack(features, *widths):
        layers = [*features, nn.Flatten()]
        (n,) = nn.compose_shapes(layers, (1, side, side))[-1]
        for width in (*widths, num_classes):
            layers += [nn.Dense(n, width), nn.Relu()]
            n = width
        return layers[:-1]

    conv, relu = nn.Conv2d, nn.Relu()
    return [
        ("cnn-a", stack([conv(1, 8, 3, 1), relu])),
        ("cnn-b", stack([conv(1, 6, 3, 1), relu, conv(6, 10, 3, 2), relu])),
        ("cnn-c", stack([conv(1, 10, 5, 2), relu], 24)),
        ("mlp-a", stack([], 48)),
        ("mlp-b", stack([], 72, 36)),
        ("mlp-c", stack([], 30)),
        ("victim-cnn", stack([conv(1, 7, 4, 1), relu, conv(7, 7, 3, 2), relu])),
        ("victim-mlp", stack([], 80, 40)),
    ]


# Masked views make the surrogates' task harder, so they get a longer,
# gentler schedule; the victim conv stack also needs the smaller step
# because conv parameter gradients sum over all spatial positions.
DEFAULT_TRAIN = TrainConfig(epochs=100, learning_rate=0.1)
_SURROGATE_TRAIN = TrainConfig(epochs=250, learning_rate=0.05)
TRAIN_SCHEDULE = {**dict.fromkeys(VIEW_BANDS, _SURROGATE_TRAIN),
                  "victim-cnn": TrainConfig(epochs=150, learning_rate=0.05)}


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
    """The manifest dict; FormatError, naming the file, unless it is UTF-8
    JSON for an object whose ``dataset`` is a string and whose ``models``
    is a list of objects with unique string ``id`` and string ``file``."""
    def bad(message, offset=0):
        return FormatError(f"manifest {path}: {message}", offset=offset)

    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise bad(f"not UTF-8: {exc.reason}", exc.start) from None
    try:
        manifest = json.loads(text)
    except json.JSONDecodeError as exc:
        raise bad(f"not JSON: {exc.msg}", len(text[:exc.pos].encode("utf-8"))) from None
    if not isinstance(manifest, dict):
        raise bad("must be a JSON object")
    if not isinstance(manifest.get("dataset"), str):
        raise bad(f"dataset must be a file name, got {manifest.get('dataset')!r}")
    models = manifest.get("models")
    if not isinstance(models, list) or not all(
            isinstance(m, dict) and isinstance(m.get("id"), str) and isinstance(m.get("file"), str)
            for m in models):
        raise bad("models must be a list of objects with string id and file")
    ids = [m["id"] for m in models]
    repeated = sorted({i for i in ids if ids.count(i) > 1})
    if repeated:
        raise bad(f"repeats model ids: {repeated}")
    return manifest


def load_zoo(zoo_dir):
    """Returns (manifest, dataset, {model_id: Model}) for a built zoo dir."""
    manifest = load_manifest(os.path.join(zoo_dir, "manifest.json"))
    dataset = load_dataset(os.path.join(zoo_dir, manifest["dataset"]))
    models = {}
    for entry in manifest["models"]:
        models[entry["id"]] = load_model(os.path.join(zoo_dir, entry["file"]))
    return manifest, dataset, models


def build_zoo(zoo_dir, num_classes: int = 8, per_class: int = 25, side: int = 12,
              seed: int = 7) -> dict:
    """Creates dataset + untrained models + manifest under zoo_dir. The
    stacks, the dataset and the models are all made before the directory
    is, so sizes they refuse (LayerSpecError or ValueError: a side below 6
    for the default family, fewer than 2 classes or 2 images per class)
    leave nothing behind."""
    specs = default_zoo_specs(side, num_classes)
    dataset = make_synthetic_dataset(num_classes, per_class, side, seed)
    models = [build_model(layers, (1, side, side), num_classes, seed, model_id)
              for model_id, layers in specs]
    os.makedirs(os.path.join(zoo_dir, "models"), exist_ok=True)
    save_dataset(dataset, os.path.join(zoo_dir, "dataset.bds"))
    entries = []
    for model in models:
        rel = os.path.join("models", f"{model.model_id}.bem")
        save_model(model, os.path.join(zoo_dir, rel))
        entries.append({**_spec(model), "file": rel, "param_count": model.param_count(),
                        "clean_accuracy": None})
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
    train with DEFAULT_TRAIN. FormatError, naming the manifest, unless its
    ``seed``, which keys the training views, is a JSON integer."""
    schedule = TRAIN_SCHEDULE if schedule is None else schedule
    manifest, dataset, models = load_zoo(zoo_dir)
    if type(manifest.get("seed")) is not int:
        raise FormatError(f"manifest {os.path.join(zoo_dir, 'manifest.json')}: seed must be "
                          f"an integer, got {manifest.get('seed')!r}")
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

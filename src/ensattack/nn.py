"""Minimal dense-tensor forward evaluation and reverse-mode engine.

Supports the layer family {dense, conv2d (valid padding), relu, flatten},
float32 throughout. The public ``forward`` takes one sample and rejects
anything else. The private ``_forward_saved`` and ``backward`` also take
a batch of samples along a leading axis, chosen by ``x.ndim``. The PM's
input gradient runs on one sample. The trainer in the zoo module and
``zoo.accuracy`` run one pass per minibatch or split; parameter gradients,
which only the trainer takes, exist only over a batch. Every item's result
is bitwise the one its own single-sample pass gives. Dense layers multiply
with ``np.matmul(w, a[:, :, None])``, which is the per-sample ``w @ a`` bit
for bit (``a @ w.T`` is not); conv layers make one call per layer of the
kernels' ``*_batch`` forms. The PM keeps the single-sample path and its
kernels: it has one image per step, and at B = 1 the batched form took
262-298 us for six surrogates' forward and backward, against 215-237 us
single-sample (seven alternating rounds on a 2-core host).
"""

from dataclasses import MISSING, asdict, dataclass, fields
from typing import Sequence

import numpy as np

from . import kernels
from .errors import LayerSpecError, ShapeError


# ---------------------------------------------------------------------------
# layer specs


def _check_positive(layer, *names) -> None:
    for name in names:
        if not getattr(layer, name) >= 1:
            raise LayerSpecError(f"{layer.kind} {name} must be >= 1, got {getattr(layer, name)!r}")


@dataclass(frozen=True)
class Dense:
    in_features: int
    out_features: int
    kind: str = "dense"

    def __post_init__(self):
        _check_positive(self, "in_features", "out_features")


@dataclass(frozen=True)
class Conv2d:
    in_channels: int
    out_channels: int
    kernel_size: int
    stride: int = 1
    kind: str = "conv2d"

    def __post_init__(self):
        _check_positive(self, "in_channels", "out_channels", "kernel_size", "stride")


@dataclass(frozen=True)
class Relu:
    kind: str = "relu"


@dataclass(frozen=True)
class Flatten:
    kind: str = "flatten"


LayerSpec = Dense | Conv2d | Relu | Flatten


# the dict form of a layer is its dataclass fields, "kind" included
layer_to_dict = asdict

_LAYER_KINDS = {cls.kind: cls for cls in (Dense, Conv2d, Relu, Flatten)}


def layer_from_dict(d) -> LayerSpec:
    """The layer a ``layer_to_dict`` dict describes. Sizes must be JSON
    integers (not floats, bools or strings); a missing conv stride is 1."""
    if not isinstance(d, dict):
        raise LayerSpecError(f"layer entry must be an object, got {d!r}")
    kind = d.get("kind")
    cls = _LAYER_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise LayerSpecError(f"unknown layer kind: {kind!r}")
    sizes = {}
    for f in fields(cls):
        if f.name == "kind" or (f.name not in d and f.default is not MISSING):
            continue
        value = d.get(f.name)
        if type(value) is not int:
            raise LayerSpecError(f"{cls.kind} {f.name} must be an integer, got {value!r}")
        sizes[f.name] = value
    return cls(**sizes)


def param_shapes(layer: LayerSpec) -> tuple:
    """Shapes of a layer's parameter group: (weight, bias) for dense and
    conv layers, none for relu and flatten."""
    if isinstance(layer, Dense):
        return ((layer.out_features, layer.in_features), (layer.out_features,))
    if isinstance(layer, Conv2d):
        k = layer.kernel_size
        return ((layer.out_channels, layer.in_channels, k, k), (layer.out_channels,))
    return ()


def output_shape(layer: LayerSpec, in_shape: tuple) -> tuple:
    """Shape produced by one layer, or raise LayerSpecError if it cannot apply."""
    if isinstance(layer, Conv2d):
        if len(in_shape) != 3 or in_shape[0] != layer.in_channels:
            raise LayerSpecError(f"conv2d expects ({layer.in_channels},h,w), got {in_shape}")
        _, h, w = in_shape
        k, s = layer.kernel_size, layer.stride
        if h < k or w < k:
            raise LayerSpecError(f"conv2d kernel {k} larger than input {in_shape}")
        return (layer.out_channels, (h - k) // s + 1, (w - k) // s + 1)
    if isinstance(layer, Dense):
        if len(in_shape) != 1 or in_shape[0] != layer.in_features:
            raise LayerSpecError(f"dense expects ({layer.in_features},), got {in_shape}")
        return (layer.out_features,)
    if isinstance(layer, Flatten):
        return (int(np.prod(in_shape)),)
    return in_shape  # relu


def compose_shapes(layers: Sequence[LayerSpec], input_shape: tuple) -> list:
    """Shapes flowing through the stack, input included. Raises if the stack
    does not compose or does not end in a logit vector."""
    if not all(d >= 1 for d in input_shape):
        raise LayerSpecError(f"input shape {tuple(input_shape)} has a non-positive size")
    shapes = [tuple(input_shape)]
    for layer in layers:
        shapes.append(output_shape(layer, shapes[-1]))
    if len(shapes[-1]) != 1:
        raise LayerSpecError(f"final layer must emit a logit vector, got shape {shapes[-1]}")
    return shapes


# ---------------------------------------------------------------------------
# model


class Model:
    """An immutable classifier: layer specs plus per-layer parameters.

    Parameters are stored in declaration order, one group per layer, each
    shaped as ``param_shapes`` states. Arrays are frozen after construction
    so models are safe to share across threads.
    """

    def __init__(self, layers: Sequence[LayerSpec], params: Sequence[tuple], input_shape: tuple,
                 num_classes: int, model_id: str = ""):
        if num_classes < 2:
            raise LayerSpecError(f"num_classes must be >= 2, got {num_classes}")
        self.layers = tuple(layers)
        self.input_shape = tuple(int(d) for d in input_shape)
        self.shapes = tuple(compose_shapes(self.layers, self.input_shape))
        if self.shapes[-1][0] != num_classes:
            raise LayerSpecError(
                f"stack emits {self.shapes[-1][0]} logits but num_classes={num_classes}")
        self.num_classes = int(num_classes)
        self.model_id = model_id
        self.params = _freeze_params(self.layers, params)

    def param_count(self) -> int:
        return sum(a.size for group in self.params for a in group)

    def param_arrays(self):
        for group in self.params:
            yield from group

    def with_params(self, new_params) -> "Model":
        """This model with other parameters. The layer stack and its shapes
        were checked when this model was built and are immutable, so only
        the parameters are checked, copied and frozen."""
        model = object.__new__(Model)
        model.__dict__.update(self.__dict__, params=_freeze_params(self.layers, new_params))
        return model


def _freeze_params(layers: tuple, params: Sequence[tuple]) -> tuple:
    """Float32 C-contiguous read-only copies of ``params``, one group per
    layer; LayerSpecError unless each group has ``param_shapes`` shapes."""
    if len(params) != len(layers):
        raise LayerSpecError(f"{len(layers)} layers but {len(params)} parameter groups")
    frozen = []
    for layer, p in zip(layers, params):
        # copy so freezing never aliases caller-owned arrays
        group = tuple(np.array(a, dtype=np.float32, order="C") for a in p)
        shapes, wanted = tuple(a.shape for a in group), param_shapes(layer)
        if shapes != wanted:
            raise LayerSpecError(f"{layer.kind} parameters have shapes {shapes}, "
                                 f"expected {wanted}")
        for a in group:
            a.flags.writeable = False
        frozen.append(group)
    return tuple(frozen)


def _check_input(model: Model, x: np.ndarray, batch: bool = False) -> np.ndarray:
    """``x`` as C-contiguous float32; ShapeError unless it is one sample or,
    with ``batch``, samples along a leading axis."""
    x = np.asarray(x, dtype=np.float32)
    if (x.shape[1:] if batch else x.shape) != model.input_shape:
        raise ShapeError(f"input shape {x.shape} does not match model input {model.input_shape}")
    return np.ascontiguousarray(x)


def _batch_sum(parts: np.ndarray) -> np.ndarray:
    """Sum over the leading axis in item order from +0.0, as ``acc += part``
    item by item does. np.add.reduce sums that way, except when each item
    is a single element: then it reduces pairwise."""
    if parts[0].size > 1:
        return np.add.reduce(parts, axis=0, initial=0.0)
    acc = np.zeros_like(parts[0])
    for part in parts:
        acc += part
    return acc


def _forward_saved(model: Model, x: np.ndarray) -> list:
    """Run the stack, keeping every intermediate activation for reverse
    mode. ``x`` is one sample, or a C-contiguous batch along a leading axis."""
    batched = x.ndim > len(model.input_shape)
    acts = [x]
    a = x
    for layer, p in zip(model.layers, model.params):
        if isinstance(layer, Dense):
            w, b = p
            a = (np.matmul(w, a[:, :, None])[:, :, 0] if batched else w @ a) + b
        elif isinstance(layer, Conv2d):
            w, b = p
            conv = kernels.conv2d_forward_batch if batched else kernels.conv2d_forward
            a = conv(a, w, b, layer.stride)
        elif isinstance(layer, Relu):
            a = np.maximum(a, np.float32(0.0))
        else:  # flatten
            a = a.reshape(len(a), -1) if batched else a.reshape(-1)
        acts.append(a)
    return acts


def forward(model: Model, x: np.ndarray) -> np.ndarray:
    """Logit vector for one sample."""
    x = _check_input(model, x)
    return _forward_saved(model, x)[-1]


def softmax(z: np.ndarray) -> np.ndarray:
    """Stable softmax (max-subtraction) over the last axis; each output
    sums to 1 within 1e-6."""
    z = np.asarray(z, dtype=np.float32)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def backward(model: Model, acts: list, upstream: np.ndarray, want_param_grads: bool = False):
    """Reverse-mode pass over saved activations.

    Returns (dx, param_grads); param_grads is None unless requested, since
    the trainer is the only caller that needs it. Parameter gradients are
    taken only over a batch (ShapeError for one sample) and are summed over
    its items in batch order from +0.0. The trainer has no use for dx, so a
    pass that wants parameter gradients ends at the lowest layer with
    parameters and returns None for dx. Over a batch, dx has one row per
    item.
    """
    g = np.asarray(upstream, dtype=np.float32)
    if g.shape != acts[-1].shape:
        raise ShapeError(f"upstream shape {g.shape} does not match logits {acts[-1].shape}")
    batched = g.ndim > 1
    if want_param_grads and not batched:
        raise ShapeError("parameter gradients are taken over a batch, got one sample")
    param_grads = [()] * len(model.layers) if want_param_grads else None
    stop = next((i for i, p in enumerate(model.params) if p), 0) if want_param_grads else -1
    for i in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[i]
        a_in = acts[i]
        if isinstance(layer, Dense):
            w, _ = model.params[i]
            if want_param_grads:
                param_grads[i] = (_batch_sum(g[:, :, None] * a_in[:, None, :]), _batch_sum(g))
            if i == stop:
                break
            g = np.matmul(w.T, g[:, :, None])[:, :, 0] if batched else w.T @ g
        elif isinstance(layer, Conv2d):
            w, _ = model.params[i]
            k, s = layer.kernel_size, layer.stride
            g = np.ascontiguousarray(g, dtype=np.float32)
            if want_param_grads:
                dw, db = kernels.conv2d_grad_params_batch(g, a_in, k, k, s)
                param_grads[i] = (_batch_sum(dw), _batch_sum(db))
            if i == stop:
                break
            grad_input = kernels.conv2d_grad_input_batch if batched else kernels.conv2d_grad_input
            g = grad_input(g, w, s, *a_in.shape[-2:])
        elif isinstance(layer, Relu):
            # subgradient at exactly 0 is defined as 0
            g = g * (a_in > 0)
        else:  # flatten
            g = g.reshape(a_in.shape)
    return (None if want_param_grads else g), param_grads


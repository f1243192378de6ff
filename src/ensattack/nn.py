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
kernels' ``*_batch`` forms. A dense weight's gradient is one
``np.einsum("bo,bi->oi", g, a)`` contraction, which adds the items' outer
products in item order from +0.0, as the per-sample trainer did, without
materialising them (on a 2-core host, 25 us against 79 us for a 48x144
weight at B = 16). A 1x1 weight is the exception: einsum reduces a single
output element in unrolled order, so it keeps the materialised sum
``_batch_sum``. A model's parameters are one read-only float32 vector,
``Model.theta``, in declaration order (the bytes a model file stores after
its header), and each weight and bias is a view of it cut by
``param_views``; the parameter gradient ``backward`` returns is one vector
laid out the same way. The trainer runs on ``_working_model``, a model over
a read-only view of a writable copy of theta that it updates in place. The PM
keeps the single-sample path and its kernels: it has one image per step,
and at B = 1 the batched form took 154 us for six surrogates' forward and
backward (input gradient only), against 126 us single-sample (min of seven
rounds on a 2-core host).
"""

import math
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Sequence

import numpy as np

from . import kernels
from .errors import LayerSpecError, ShapeError, check_int


# ---------------------------------------------------------------------------
# layer specs


def _check_positive(layer, *names) -> None:
    for name in names:
        check_int(f"{layer.kind} {name}", getattr(layer, name), 1, LayerSpecError)


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
    """The layer a ``layer_to_dict`` dict describes; a missing conv stride
    is 1. Each layer checks its own sizes, so a float, a bool or a missing
    size raises LayerSpecError."""
    if not isinstance(d, dict):
        raise LayerSpecError(f"layer entry must be an object, got {d!r}")
    kind = d.get("kind")
    cls = _LAYER_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise LayerSpecError(f"unknown layer kind: {kind!r}")
    return cls(**{f.name: d.get(f.name) for f in fields(cls)
                  if f.name != "kind" and (f.name in d or f.default is MISSING)})


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
    """An immutable classifier: layer specs plus one parameter vector.

    ``theta`` is every parameter as one read-only float32 vector in
    declaration order, weight before bias per layer: the bytes a model file
    stores after its header. ``params`` holds one group per layer, each a
    read-only view of ``theta`` shaped as ``param_shapes`` states, cut by
    ``param_views``. The model is safe to share across threads.

    ``theta`` given to the constructor is such a vector, and it is copied.
    """

    def __init__(self, layers: Sequence[LayerSpec], theta: np.ndarray, input_shape: tuple,
                 num_classes: int, model_id: str = ""):
        if num_classes < 2:
            raise LayerSpecError(f"num_classes must be >= 2, got {num_classes}")
        self.layers = tuple(layers)
        self.input_shape = tuple(int(d) for d in input_shape)
        logits = compose_shapes(self.layers, self.input_shape)[-1][0]
        if logits != num_classes:
            raise LayerSpecError(f"stack emits {logits} logits but num_classes={num_classes}")
        self.num_classes = int(num_classes)
        self.model_id = model_id
        self._adopt(_theta(self.layers, theta))

    def param_count(self) -> int:
        return self.theta.size

    def with_params(self, theta: np.ndarray) -> "Model":
        """This model over a copy of another parameter vector, checked as
        the constructor checks it. The layer stack and its shapes were
        checked when this model was built and are immutable."""
        return self._over(_theta(self.layers, theta))

    def _over(self, theta: np.ndarray) -> "Model":
        """This model over ``theta``, taken as it is and made read-only."""
        model = object.__new__(Model)
        model.__dict__.update(self.__dict__)
        model._adopt(theta)
        return model

    def _adopt(self, theta: np.ndarray) -> None:
        theta.flags.writeable = False
        self.theta, self.params = theta, param_views(self.layers, theta)


def theta_size(layers: Sequence[LayerSpec]) -> int:
    """Number of parameters of a layer stack: the length of its theta."""
    return sum(math.prod(shape) for layer in layers for shape in param_shapes(layer))


def param_views(layers: Sequence[LayerSpec], vector: np.ndarray) -> tuple:
    """``vector``, one float per parameter in declaration order, cut into
    one group of views per layer, shaped as ``param_shapes`` states. Each
    view is writable exactly when ``vector`` is."""
    groups, at = [], 0
    for layer in layers:
        group = []
        for shape in param_shapes(layer):
            size = math.prod(shape)
            group.append(vector[at:at + size].reshape(shape))
            at += size
        groups.append(tuple(group))
    return tuple(groups)


def _theta(layers: tuple, theta) -> np.ndarray:
    """A new float32 copy of ``theta``. LayerSpecError unless it is a NumPy
    array of shape ``(theta_size(layers),)``: one float per parameter, in
    declaration order."""
    size = theta_size(layers)
    if not isinstance(theta, np.ndarray) or theta.shape != (size,):
        got = f"shape {theta.shape}" if isinstance(theta, np.ndarray) else type(theta).__name__
        raise LayerSpecError(f"expected a parameter array of shape ({size},), got {got}")
    return theta.astype(np.float32)


def _working_model(model: Model) -> tuple:
    """(theta, work) for the trainer: ``theta`` is a writable copy of
    ``model.theta``, and ``work`` is ``model`` over a read-only view of it,
    so every in-place update of theta is the next pass's parameters
    without building a model again."""
    theta = model.theta.copy()
    return theta, model._over(theta.view())


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

    Returns (dx, dtheta). dtheta is None unless requested, since the
    trainer is the only caller that needs it; it is then one new float32
    vector laid out as ``model.theta``, each layer's gradients written into
    its ``param_views``. Parameter gradients are taken only over a batch
    (ShapeError for one sample) and are summed over its items in batch
    order from +0.0: a dense weight's by one einsum contraction, which sums
    that way, except a 1x1 weight's, which einsum reduces in unrolled order
    and ``_batch_sum`` sums instead; every other gradient by
    ``_batch_sum``. The trainer has no use for dx, so a pass that wants
    parameter gradients ends at the lowest layer with parameters and
    returns None for dx. Over a batch, dx has one row per item.
    """
    g = np.asarray(upstream, dtype=np.float32)
    if g.shape != acts[-1].shape:
        raise ShapeError(f"upstream shape {g.shape} does not match logits {acts[-1].shape}")
    batched = g.ndim > 1
    if want_param_grads and not batched:
        raise ShapeError("parameter gradients are taken over a batch, got one sample")
    dtheta = np.empty(model.theta.size, np.float32) if want_param_grads else None
    grads = param_views(model.layers, dtheta) if want_param_grads else None
    stop = next((i for i, p in enumerate(model.params) if p), 0) if want_param_grads else -1
    for i in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[i]
        a_in = acts[i]
        if isinstance(layer, Dense):
            w, _ = model.params[i]
            if want_param_grads:
                dw, db = grads[i]
                # einsum adds the items' outer products in item order from
                # +0.0 without materialising them; a 1x1 weight it reduces
                # in unrolled order, so that one keeps _batch_sum
                if w.size > 1:
                    np.einsum("bo,bi->oi", g, a_in, out=dw)
                else:
                    dw[...] = _batch_sum(g[:, :, None] * a_in[:, None, :])
                db[...] = _batch_sum(g)
            if i == stop:
                break
            g = np.matmul(w.T, g[:, :, None])[:, :, 0] if batched else w.T @ g
        elif isinstance(layer, Conv2d):
            w, _ = model.params[i]
            k, s = layer.kernel_size, layer.stride
            g = np.ascontiguousarray(g, dtype=np.float32)
            if want_param_grads:
                for parts, out in zip(kernels.conv2d_grad_params_batch(g, a_in, k, k, s), grads[i]):
                    out[...] = _batch_sum(parts)
            if i == stop:
                break
            grad_input = kernels.conv2d_grad_input_batch if batched else kernels.conv2d_grad_input
            g = grad_input(g, w, s, *a_in.shape[-2:])
        elif isinstance(layer, Relu):
            # subgradient at exactly 0 is defined as 0
            g = g * (a_in > 0)
        else:  # flatten
            g = g.reshape(a_in.shape)
    return (None if want_param_grads else g), dtheta

"""Shared test helpers: independent oracles and tiny fixture models.

The oracles here deliberately avoid the package's own computation paths:
naive_forward is a float64 straight-line evaluator, fd_gradient a
central-difference gradient, plain_pgd a standalone projected signed-gradient
loop, and naive_conv_forward a plain-loop convolution. They exist so package
outputs are checked against code with no shared structure beyond the math.

The tensordot_conv_* oracles are the other kind: the tensordot and
strided-loop kernels the package once ran, kept verbatim so the im2col
kernels can be checked against them bit for bit, and ref_param_grads is
the full reverse pass built on them. per_sample_train and
per_sample_accuracy are the same kind for the zoo: the trainer and
accuracy loops that ran one sample at a time (their parameter gradients
from ref_param_grads), so the batched ones can be checked against them
bit for bit. ref_single_loss, ref_fuse and
ref_ensemble_input_gradient are the same kind for the PM step: the
per-member loss loop and the gradient that back-propagated every member,
so the stacked fusion and the skip of fooled members can be checked
against them bit for bit.
"""

import numpy as np

from ensattack import nn
from ensattack.errors import DegenerateClassifierError, TrainingDivergedError
from ensattack.losses import (_P_FLOOR, AttackGoal, LossKind, check_weights, cross_entropy,
                              single_loss)
from ensattack.oracle import Oracle
from ensattack.prng import stream
from ensattack.zoo import BATCH_SIZE, WEIGHT_DECAY


def input_gradient(model, x, upstream):
    """Gradient of upstream . logits w.r.t. one input x, by the engine's own
    forward and reverse pass (the package's PM reaches them through
    losses.ensemble_input_gradient)."""
    acts = nn._forward_saved(model, nn._check_input(model, x))
    return nn.backward(model, acts, upstream)[0]


def record_calls(monkeypatch, owner, name):
    """The argument tuples of every call of ``owner.<name>`` from now on."""
    calls = []
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a: calls.append(a) or real(*a))
    return calls


# ---------------------------------------------------------------------------
# independent numeric oracles


def naive_conv_forward(x, w, b, stride):
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    cout, _, kh, kw = w.shape
    oh = (x.shape[1] - kh) // stride + 1
    ow = (x.shape[2] - kw) // stride + 1
    y = np.zeros((cout, oh, ow))
    for co in range(cout):
        for p in range(oh):
            for q in range(ow):
                win = x[:, p * stride:p * stride + kh, q * stride:q * stride + kw]
                y[co, p, q] = float(b[co]) + float(np.sum(win * w[co]))
    return y


def conv_windows(x, kh, kw, stride):
    cin, h, w = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    s0, s1, s2 = x.strides
    return np.lib.stride_tricks.as_strided(
        x, (cin, oh, ow, kh, kw), (s0, s1 * stride, s2 * stride, s1, s2)
    )


def tensordot_conv_forward(x, w, b, stride):
    win = conv_windows(x, w.shape[2], w.shape[3], stride)
    y = np.tensordot(w, win, axes=([1, 2, 3], [0, 3, 4]))
    y += b[:, None, None]
    return np.ascontiguousarray(y, dtype=np.float32)


def tensordot_conv_grad_input(dy, w, stride, in_h, in_w):
    cout, cin, kh, kw = w.shape
    oh, ow = dy.shape[1], dy.shape[2]
    dx = np.zeros((cin, in_h, in_w), dtype=np.float32)
    # t[ci,u,v,p,q] = sum_co w[co,ci,u,v] * dy[co,p,q]
    t = np.tensordot(w, dy, axes=([0], [0]))
    for u in range(kh):
        for v in range(kw):
            dx[:, u : u + stride * oh : stride, v : v + stride * ow : stride] += t[:, u, v]
    return dx


def tensordot_conv_grad_params(dy, x, kh, kw, stride):
    win = conv_windows(x, kh, kw, stride)
    dw = np.tensordot(dy, win, axes=([1, 2], [1, 2]))
    db = dy.sum(axis=(1, 2))
    return np.ascontiguousarray(dw, dtype=np.float32), np.ascontiguousarray(db, dtype=np.float32)


def ref_param_grads(model, acts, upstream):
    """(dx, parameter gradients) from a reverse pass over every layer, the
    model input included, on the tensordot_conv_* kernels."""
    g = np.asarray(upstream, dtype=np.float32)
    grads = []
    for i in range(len(model.layers) - 1, -1, -1):
        layer, a_in = model.layers[i], acts[i]
        if layer.kind == "dense":
            w = model.params[i][0]
            grads.append((np.outer(g, a_in), g.copy()))
            g = w.T @ g
        elif layer.kind == "conv2d":
            w = model.params[i][0]
            g = np.ascontiguousarray(g, dtype=np.float32)
            k, s = layer.kernel_size, layer.stride
            grads.append(tensordot_conv_grad_params(g, a_in, k, k, s))
            g = tensordot_conv_grad_input(g, w, s, a_in.shape[1], a_in.shape[2])
        elif layer.kind == "relu":
            grads.append(())
            g = g * (a_in > 0)
        else:
            grads.append(())
            g = g.reshape(a_in.shape)
    return g, grads[::-1]


TRAIN_LOSS = LossKind("cross_entropy")


def per_sample_train(model, dataset, cfg, record=None):
    """zoo.train as it ran before minibatches were batched: one forward,
    single_loss and backward per sample."""
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
                goal = AttackGoal("targeted", int(dataset.labels[j]))
                loss, g_logits = single_loss(acts[-1], goal, TRAIN_LOSS)
                epoch_loss += loss
                _, pgrads = ref_param_grads(work, acts, g_logits)
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


def per_sample_accuracy(model, dataset):
    """zoo.accuracy as it ran before: one nn.forward per image."""
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    hits = 0
    for img, label in zip(dataset.images, dataset.labels):
        hits += int(np.argmax(nn.forward(model, img)) == label)
    return hits / len(dataset)


def _ref_check_logits(z: np.ndarray, label: int) -> np.ndarray:
    z = np.asarray(z, dtype=np.float32)
    if z.ndim != 1 or z.size < 2:
        raise DegenerateClassifierError(f"need a logit vector with C >= 2, got shape {z.shape}")
    if label >= z.size:
        raise DegenerateClassifierError(f"label {label} out of range for C={z.size}")
    return z


def ref_single_loss(z: np.ndarray, goal: AttackGoal, loss: LossKind) -> tuple:
    """single_loss as it ran before the stacked fusion, one logit vector
    at a time."""
    z = _ref_check_logits(z, goal.label)
    y = goal.label
    targeted = goal.mode == "targeted"
    if loss.kind == "cw_margin":
        masked = z.copy()
        masked[y] = -np.inf
        j = int(np.argmax(masked))
        # both differences are spelled out: z_y - z_j at a tie is +0.0,
        # where -(z_j - z_y) would be -0.0
        margin = float(z[j] - z[y]) if targeted else float(z[y] - z[j])
        sign = np.float32(1.0 if targeted else -1.0)
        g = np.zeros_like(z)
        if margin > -float(loss.kappa):
            g[j] = sign
            g[y] = -sign
        return max(margin, -float(loss.kappa)), g
    nll, g = cross_entropy(z[None], [y])
    nll, g = float(nll[0]), g[0]
    return (nll, g) if targeted else (-nll, -g)


def ref_fuse(outputs, w, fusion: str, loss: LossKind, goal: AttackGoal) -> tuple:
    """losses._fuse as it ran before: one ref_single_loss per member, and
    a list of upstreams."""
    if fusion == "weighted_loss":
        parts = [ref_single_loss(z, goal, loss) for z in outputs]
        value = float(sum(wi * val for wi, (val, _) in zip(w, parts)))
        return value, [np.float32(wi) * g for wi, (_, g) in zip(w, parts)]
    if fusion == "weighted_logits":
        fused = np.zeros_like(np.asarray(outputs[0], dtype=np.float32))
        for wi, z in zip(w, outputs):
            fused = fused + np.float32(wi) * np.asarray(z, dtype=np.float32)
        value, u = ref_single_loss(fused, goal, loss)
        return value, [np.float32(wi) * u for wi in w]
    if fusion == "weighted_probabilities":
        probs = [nn.softmax(z) for z in outputs]
        p_bar = np.zeros(len(probs[0]), dtype=np.float64)
        for wi, p in zip(w, probs):
            p_bar += wi * p.astype(np.float64)
        p_y = max(float(p_bar[goal.label]), _P_FLOOR)
        targeted = goal.mode == "targeted"
        # dL/dp_bar is a one-hot spike at the goal label
        v = np.zeros(len(p_bar), dtype=np.float32)
        v[goal.label] = np.float32(-1.0 / p_y if targeted else 1.0 / p_y)
        # chain through each member's softmax: J^T v = p (v - <v, p>)
        upstreams = [np.float32(wi) * (p * (v - np.float32(np.dot(v, p))))
                     for wi, p in zip(w, probs)]
        return float(-np.log(p_y)) if targeted else float(np.log(p_y)), upstreams
    raise ValueError(f"unknown fusion {fusion!r}")


def ref_ensemble_input_gradient(models, x, delta, w, fusion: str, loss: LossKind,
                                goal: AttackGoal) -> np.ndarray:
    """losses.ensemble_input_gradient as it ran before: one backward for
    every member with a nonzero weight (every member under weighted_logits),
    summed in member order."""
    w = check_weights(len(models), w)
    x_adv = np.asarray(x, dtype=np.float32) + np.asarray(delta, dtype=np.float32)
    active = [i for i in range(len(models)) if fusion == "weighted_logits" or w[i] != 0.0]
    saved = [nn._forward_saved(models[i], x_adv) for i in active]
    _, upstreams = ref_fuse([acts[-1] for acts in saved], w[active], fusion, loss, goal)

    grad = None
    for i, acts, u in zip(active, saved, upstreams):
        dx, _ = nn.backward(models[i], acts, u)
        grad = dx if grad is None else grad + dx
    return grad


def naive_forward(model, x):
    """float64 straight-line evaluation of a model's layer stack."""
    a = np.asarray(x, dtype=np.float64)
    for layer, p in zip(model.layers, model.params):
        if layer.kind == "dense":
            w, b = p
            a = w.astype(np.float64) @ a.reshape(-1) + b.astype(np.float64)
        elif layer.kind == "conv2d":
            w, b = p
            a = naive_conv_forward(a, w, b, layer.stride)
        elif layer.kind == "relu":
            a = np.maximum(a, 0.0)
        else:
            a = a.reshape(-1)
    return a


def fd_gradient(scalar_fn, x, h):
    """Central-difference gradient oracle: (f(x+h e_i) - f(x-h e_i)) / 2h."""
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=np.float32)
    flat = x.reshape(-1)
    grad = np.zeros(flat.shape, dtype=np.float64)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + np.float32(h)
        f_plus = float(scalar_fn(bumped.reshape(x.shape)))
        bumped[i] = flat[i] - np.float32(h)
        f_minus = float(scalar_fn(bumped.reshape(x.shape)))
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad.reshape(x.shape).astype(np.float32)


def _pgd_loss_grad(z, goal, kind, kappa):
    if kind == "cw_margin":
        g = np.zeros_like(z)
        masked = z.copy()
        masked[goal.label] = -np.inf
        j = int(np.argmax(masked))
        if goal.mode == "targeted":
            margin = float(z[j] - z[goal.label])
            s = np.float32(1.0)
        else:
            margin = float(z[goal.label] - z[j])
            s = np.float32(-1.0)
        if margin > -float(kappa):
            g[j] = s
            g[goal.label] = -s
        return g
    p = nn.softmax(z)
    g = p.copy()
    g[goal.label] -= np.float32(1.0)
    return g if goal.mode == "targeted" else -g


def _pgd_project(d, x, norm, eps):
    if norm == "linf":
        e = np.float32(eps)
        out = np.clip(d, -e, e)
    else:
        n = float(np.sqrt(np.sum(d.astype(np.float64) ** 2)))
        out = d * np.float32(eps / n) if n > eps * (1.0 + 1e-6) else d.copy()
    return np.clip(out, -x, np.float32(1.0) - x)


def plain_pgd(model, x, goal, norm, eps, steps, lam, delta_init,
              kind="cw_margin", kappa=0.0):
    """Standalone single-model PGD: T steps of project(d - lam*sign(grad)).

    Uses input_gradient for the backward pass (criterion-checked against
    finite differences separately) but owns its loss gradient, projection,
    stepping, and loop structure.
    """
    x = np.asarray(x, dtype=np.float32)
    d = _pgd_project(np.asarray(delta_init, dtype=np.float32), x, norm, eps)
    lam = np.float32(lam)
    for _ in range(steps):
        z = nn.forward(model, x + d)
        u = _pgd_loss_grad(z, goal, kind, kappa)
        g = input_gradient(model, x + d, u)
        d = _pgd_project(d - lam * np.sign(g), x, norm, eps)
    return d


# ---------------------------------------------------------------------------
# tiny fixture models

TINY_SHAPE = (1, 6, 6)
TINY_CLASSES = 4


def tiny_layer_menu():
    d = int(np.prod(TINY_SHAPE))
    return [
        [nn.Flatten(), nn.Dense(d, TINY_CLASSES)],
        [nn.Flatten(), nn.Dense(d, 10), nn.Relu(), nn.Dense(10, TINY_CLASSES)],
        [nn.Conv2d(1, 3, 3, 1), nn.Relu(), nn.Flatten(), nn.Dense(48, TINY_CLASSES)],
        [nn.Conv2d(1, 4, 3, 2), nn.Relu(), nn.Flatten(), nn.Dense(16, TINY_CLASSES)],
    ]


def tiny_model(seed, arch=0):
    from ensattack import zoo

    layers = tiny_layer_menu()[arch % len(tiny_layer_menu())]
    return zoo.build_model(layers, TINY_SHAPE, TINY_CLASSES, seed, f"tiny-{arch}-{seed}")


def const_model(input_shape=TINY_SHAPE, num_classes=TINY_CLASSES, hot=0):
    """Constant-logit classifier: always predicts ``hot``, zero gradients."""
    d = int(np.prod(input_shape))
    bias = np.zeros(num_classes, dtype=np.float32)
    bias[hot] = np.float32(1.0)
    params = [(), (np.zeros((num_classes, d), dtype=np.float32), bias)]
    return nn.Model([nn.Flatten(), nn.Dense(d, num_classes)], params,
                    input_shape, num_classes, "const")


def rand_image(seed, shape=TINY_SHAPE, tag="image"):
    return stream(seed, tag).uniform(shape, 0.05, 0.95).astype(np.float32)


# ---------------------------------------------------------------------------
# scripted oracle


class ScriptedOracle(Oracle):
    """Soft oracle that fails the goal until call number ``succeed_at``.

    Logits are crafted per query from the goal, so tests control exactly
    which query succeeds; counting and logging are oracle.Oracle's own.
    """

    def __init__(self, num_classes, succeed_at=None):
        super().__init__("soft", num_classes)
        self.succeed_at = succeed_at
        self._goal = None

    def query(self, image, goal=None):
        self._goal = goal
        return super().query(image, goal)

    def _predict(self, image):
        z = np.zeros(self.num_classes, dtype=np.float32)
        winner = self.count + 1 == self.succeed_at
        goal = self._goal
        if goal is not None:
            if goal.mode == "targeted":
                z[goal.label] = np.float32(1.0 if winner else -1.0)
            else:
                z[goal.label] = np.float32(-1.0 if winner else 1.0)
        return int(np.argmax(z)), z


def targeted(label):
    return AttackGoal("targeted", label)


def untargeted(label):
    return AttackGoal("untargeted", label)

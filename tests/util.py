"""Shared test helpers: independent oracles and tiny fixture models.

The oracles here deliberately avoid the package's own computation paths:
naive_forward is a float64 straight-line evaluator, fd_gradient a
central-difference gradient, plain_pgd a standalone projected signed-gradient
loop, and naive_conv_forward a plain-loop convolution. They exist so package
outputs are checked against code with no shared structure beyond the math.
"""

import numpy as np

from ensattack import nn
from ensattack.losses import AttackGoal
from ensattack.oracle import Oracle
from ensattack.prng import stream


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

    Uses nn.input_gradient for the backward pass (criterion-checked against
    finite differences separately) but owns its loss gradient, projection,
    stepping, and loop structure.
    """
    x = np.asarray(x, dtype=np.float32)
    d = _pgd_project(np.asarray(delta_init, dtype=np.float32), x, norm, eps)
    lam = np.float32(lam)
    for _ in range(steps):
        z = nn.forward(model, x + d)
        u = _pgd_loss_grad(z, goal, kind, kappa)
        g = nn.input_gradient(model, x + d, u)
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

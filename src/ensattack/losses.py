"""Adversarial losses for single models and weighted surrogate ensembles.

Sign convention: lower is always more adversarial, for every loss kind and
goal mode, so the outer search can select candidates by plain min. Success
itself is decided by the argmax predicate (see oracle.is_success), never by
the sign of a loss.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import DegenerateClassifierError, EnsembleArityError

FUSION_KINDS = ("weighted_probabilities", "weighted_logits", "weighted_loss")
# floor for fused probabilities before log; keeps the loss finite when every
# ensemble member assigns (float32) zero mass to the class of interest
_P_FLOOR = 1e-12


@dataclass(frozen=True)
class AttackGoal:
    mode: str  # "targeted" (label = y*) or "untargeted" (label = true y)
    label: int

    def __post_init__(self):
        if self.mode not in ("targeted", "untargeted"):
            raise ValueError(f"unknown goal mode {self.mode!r}")
        if self.label < 0:
            raise ValueError("label must be a class index")


@dataclass(frozen=True)
class LossKind:
    kind: str = "cw_margin"  # or "cross_entropy"
    kappa: float = 0.0

    def __post_init__(self):
        if self.kind not in ("cw_margin", "cross_entropy"):
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if not np.isfinite(self.kappa) or self.kappa < 0:
            raise ValueError("kappa must be finite and >= 0")


def _check_logits(z: np.ndarray, label: int) -> np.ndarray:
    z = np.asarray(z, dtype=np.float32)
    if z.ndim != 1 or z.size < 2:
        raise DegenerateClassifierError(f"need a logit vector with C >= 2, got shape {z.shape}")
    if label >= z.size:
        raise DegenerateClassifierError(f"label {label} out of range for C={z.size}")
    return z


def single_loss(z: np.ndarray, goal: AttackGoal, loss: LossKind) -> tuple:
    """(L, dL/dz) for one logit vector, from one set of expressions.

    cw_margin:     targeted   max(max_{j != y*} z_j - z_{y*}, -kappa)
                   untargeted max(z_y - max_{j != y} z_j, -kappa)
                   It is <= 0 iff the goal's argmax condition holds weakly.
                   Its gradient is zero on the clipped (-kappa) branch and at
                   the clip boundary; runner-up ties break toward the lowest
                   index.
    cross_entropy: targeted -log softmax(z)_{y*}, untargeted +log softmax(z)_y,
                   from cross_entropy below.
    """
    z = _check_logits(z, goal.label)
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


def cross_entropy(z: np.ndarray, labels) -> tuple:
    """Targeted cross-entropy -log softmax(z_i)_{y_i} for each row of (B, C)
    logits, and its gradient: (float64 losses (B,), float32 dL/dz (B, C)).

    The log-sum-exp runs in float64 from the float32 row max; the gradient
    is the float32 softmax minus the one-hot label. A row's result does not
    depend on the other rows, so one row gives single_loss's value bit for
    bit and a minibatch gives the trainer's.
    """
    z = np.asarray(z, dtype=np.float32)
    rows, labels = np.arange(len(z)), np.asarray(labels)
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.sum(np.exp(z.astype(np.float64) - m), axis=1))
    nll = lse - z[rows, labels]
    g = nn.softmax(z)
    g[rows, labels] -= np.float32(1.0)
    return nll, g


def check_weights(n_members: int, w) -> np.ndarray:
    """The ensemble weights as float64; EnsembleArityError unless they are
    one finite weight per member and not all zero."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1 or len(w) != n_members:
        raise EnsembleArityError(f"{n_members} members vs {w.shape} weights")
    # the PM checks every step; on a handful of weights Python floats are
    # quicker than NumPy reductions
    values = w.tolist()
    if not all(map(math.isfinite, values)):
        raise EnsembleArityError(f"ensemble weights must be finite, got {values}")
    if not any(values):
        raise EnsembleArityError("every ensemble weight is zero")
    return w


def _fuse(outputs, w, fusion: str, loss: LossKind, goal: AttackGoal) -> tuple:
    """(fused loss, [dL/dz for each member]) over per-model logits.

    weighted_probabilities fuses softmax outputs and always applies the
    log-probability form regardless of the configured LossKind; the other
    two apply the configured loss to fused logits / per-model logits.
    """
    if fusion == "weighted_loss":
        parts = [single_loss(z, goal, loss) for z in outputs]
        value = float(sum(wi * val for wi, (val, _) in zip(w, parts)))
        return value, [np.float32(wi) * g for wi, (_, g) in zip(w, parts)]
    if fusion == "weighted_logits":
        fused = np.zeros_like(np.asarray(outputs[0], dtype=np.float32))
        for wi, z in zip(w, outputs):
            fused = fused + np.float32(wi) * np.asarray(z, dtype=np.float32)
        value, u = single_loss(fused, goal, loss)
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


def ensemble_loss(outputs, w, fusion: str, loss: LossKind, goal: AttackGoal) -> float:
    """The fused loss over per-model logits, every member included.
    EnsembleArityError unless check_weights accepts w."""
    return _fuse(outputs, check_weights(len(outputs), w), fusion, loss, goal)[0]


def ensemble_input_gradient(models, x, delta, w, fusion: str, loss: LossKind,
                            goal: AttackGoal) -> np.ndarray:
    """Exact reverse-mode gradient of ensemble_loss w.r.t. delta.

    The reduction runs over models in list order (callers pass manifest-id
    order), so the result is deterministic. Zero-weight members are skipped
    except under weighted_logits: they contribute exactly nothing, which
    keeps simplex vertices identical to the single-model gradient.
    EnsembleArityError, before any forward runs, unless check_weights
    accepts w.
    """
    w = check_weights(len(models), w)
    x_adv = np.asarray(x, dtype=np.float32) + np.asarray(delta, dtype=np.float32)
    active = [i for i in range(len(models)) if fusion == "weighted_logits" or w[i] != 0.0]
    saved = [nn._forward_saved(models[i], x_adv) for i in active]
    _, upstreams = _fuse([acts[-1] for acts in saved], w[active], fusion, loss, goal)

    grad = None
    for i, acts, u in zip(active, saved, upstreams):
        dx, _ = nn.backward(models[i], acts, u)
        grad = dx if grad is None else grad + dx
    return grad

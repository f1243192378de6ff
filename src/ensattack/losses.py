"""Adversarial losses for single models and weighted surrogate ensembles.

Sign convention: lower is always more adversarial, for every loss kind and
goal mode, so the outer search can select candidates by plain min. Success
itself is decided by the argmax predicate (see oracle.is_success), never by
the sign of a loss.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import (DegenerateClassifierError, EnsembleArityError, ShapeError, check_int,
                     check_number)

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
        check_int("label", self.label, 0)


@dataclass(frozen=True)
class LossKind:
    kind: str = "cw_margin"  # or "cross_entropy"
    kappa: float = 0.0

    def __post_init__(self):
        if self.kind not in ("cw_margin", "cross_entropy"):
            raise ValueError(f"unknown loss kind {self.kind!r}")
        check_number("kappa", self.kappa, positive=False)


def _check_logits(z, label: int, ndim: int) -> np.ndarray:
    try:
        z = np.asarray(z, dtype=np.float32)
    except ValueError:  # a ragged stack of member logits
        raise ShapeError("ensemble members disagree on the number of classes") from None
    if z.ndim != ndim or z.shape[-1] < 2:
        what = "a logit vector" if ndim == 1 else "(N, C) logits"
        raise DegenerateClassifierError(f"need {what} with C >= 2, got shape {z.shape}")
    if label >= z.shape[-1]:
        raise DegenerateClassifierError(f"label {label} out of range for C={z.shape[-1]}")
    return z


def stacked_loss(z: np.ndarray, goal: AttackGoal, loss: LossKind) -> tuple:
    """([L_i], dL_i/dz_i) for each row of (N, C) logits, from one set of
    expressions: the values as Python floats in row order and the float32
    gradients as one (N, C) array.

    cw_margin:     targeted   max(max_{j != y*} z_j - z_{y*}, -kappa)
                   untargeted max(z_y - max_{j != y} z_j, -kappa)
                   It is <= 0 iff the goal's argmax condition holds weakly.
                   Its gradient is zero on the clipped (-kappa) branch and at
                   the clip boundary; runner-up ties break toward the lowest
                   index.
    cross_entropy: targeted -log softmax(z)_{y*}, untargeted +log softmax(z)_y,
                   from cross_entropy below.

    A row's result does not depend on the other rows, so a row of a stack
    gives bit for bit what single_loss gives for it alone.
    """
    z = _check_logits(z, goal.label, 2)
    y = goal.label
    targeted = goal.mode == "targeted"
    if loss.kind == "cw_margin":
        masked = z.copy()
        masked[:, y] = -np.inf
        j = masked.argmax(axis=1)
        z_j, z_y = z[np.arange(len(z)), j], z[:, y]
        # both differences are spelled out: z_y - z_j at a tie is +0.0,
        # where -(z_j - z_y) would be -0.0
        margin = (z_j - z_y if targeted else z_y - z_j).tolist()
        clip = -float(loss.kappa)
        sign = np.float32(1.0 if targeted else -1.0)
        g = np.zeros_like(z)
        # a handful of rows: item assignment beats boolean fancy indexing
        for r, (m, jr) in enumerate(zip(margin, j.tolist())):
            if m > clip:
                g[r, jr] = sign
                g[r, y] = -sign
        return [max(m, clip) for m in margin], g
    nll, g = cross_entropy(z, np.full(len(z), y))
    return (nll.tolist(), g) if targeted else ((-nll).tolist(), -g)


def single_loss(z: np.ndarray, goal: AttackGoal, loss: LossKind) -> tuple:
    """(L, dL/dz) for one logit vector: the one-row case of stacked_loss."""
    values, g = stacked_loss(_check_logits(z, goal.label, 1)[None], goal, loss)
    return values[0], g[0]


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
    """(fused loss, dL/dz for each member as one float32 (N, C) array) over
    per-model logits, stacked and checked once.

    weighted_loss sums the weighted member losses as Python floats in member
    order; weighted_logits applies the loss to the fused logits;
    weighted_probabilities fuses softmax outputs and always applies the
    log-probability form regardless of the configured LossKind. Both fused
    rows are summed in member order from +0.0.
    """
    z = _check_logits(outputs, goal.label, 2)
    w32, y = w.astype(np.float32)[:, None], goal.label
    if fusion == "weighted_loss":
        values, g = stacked_loss(z, goal, loss)
        return float(sum(map(operator.mul, w.tolist(), values))), w32 * g
    if fusion == "weighted_logits":
        value, u = single_loss(nn._batch_sum(w32 * z), goal, loss)
        return value, w32 * u
    if fusion == "weighted_probabilities":
        probs = nn.softmax(z)
        p_y = max(float(nn._batch_sum(w[:, None] * probs.astype(np.float64))[y]), _P_FLOOR)
        targeted = goal.mode == "targeted"
        # dL/dp_bar is a one-hot spike at the goal label
        v = np.zeros(z.shape[1], dtype=np.float32)
        v[y] = np.float32(-1.0 / p_y if targeted else 1.0 / p_y)
        # chain through each member's softmax: J^T v = p (v - <v, p>), where
        # <v, p> is exactly +0.0 + v_y p_y: the other products are +0.0, and
        # a row with a non-finite logit is all NaN out of softmax
        dot = np.float32(0.0) + probs[:, y] * v[y]
        upstreams = w32 * (probs * (v - dot[:, None]))
        return float(-np.log(p_y)) if targeted else float(np.log(p_y)), upstreams
    raise ValueError(f"unknown fusion {fusion!r}")


def ensemble_loss(outputs, w, fusion: str, loss: LossKind, goal: AttackGoal) -> float:
    """The fused loss over per-model logits, every member included.
    EnsembleArityError unless check_weights accepts w."""
    return _fuse(outputs, check_weights(len(outputs), w), fusion, loss, goal)[0]


def ensemble_input_gradient(models, x, delta, w, fusion: str, loss: LossKind,
                            goal: AttackGoal) -> np.ndarray:
    """Exact reverse-mode gradient of ensemble_loss w.r.t. delta.

    One forward per member, one fusion over the stacked member logits, and
    one backward per member whose upstream dL/dz has a nonzero entry. The
    reduction runs over models in list order (callers pass manifest-id
    order), so the result is deterministic. Two kinds of member add nothing
    and are skipped:

    - a zero-weight member, except under weighted_logits, which keeps
      simplex vertices identical to the single-model gradient;
    - a member whose upstream is all zero: under cw_margin, one the
      current delta already fools by the margin kappa. With finite
      parameters, the reverse pass of a +-0.0 upstream is +0.0 at the
      input: the dense product and the conv column product accumulate
      from +0.0, and the conv scatter adds into a +0.0 array, so every
      zero below the first layer with parameters is +0.0 whatever its
      signs above. A float sum in order is unchanged by a +0.0 addend
      wherever it sits, except that it turns a -0.0 sum into +0.0; so
      when a member is skipped this way, +0.0 is added once, and the sum
      is +0.0 when no member is left. zoo.load_model refuses non-finite
      parameters. A member with no parameter layer passes a -0.0 upstream
      through, so it is never skipped.

    Before any forward runs: EnsembleArityError unless check_weights
    accepts w, and ShapeError unless every member takes x + delta's shape.
    """
    w = check_weights(len(models), w)
    x_adv = np.asarray(x, dtype=np.float32) + np.asarray(delta, dtype=np.float32)
    for m in models:
        if m.input_shape != x_adv.shape:
            raise ShapeError(f"image shape {x_adv.shape} does not match surrogate "
                             f"{m.model_id!r} input {m.input_shape}")
    active = [i for i in range(len(models)) if fusion == "weighted_logits" or w[i] != 0.0]
    saved = [nn._forward_saved(models[i], x_adv) for i in active]
    _, upstreams = _fuse([acts[-1] for acts in saved], w[active], fusion, loss, goal)

    grad, skipped = None, False
    for i, acts, u, live in zip(active, saved, upstreams, upstreams.any(axis=1).tolist()):
        if not live and any(models[i].params):
            skipped = True
            continue
        dx, _ = nn.backward(models[i], acts, u)
        grad = dx if grad is None else grad + dx
    if grad is None:
        return np.zeros_like(x_adv)
    return grad + np.float32(0.0) if skipped else grad

"""Perturbation machine: weighted-ensemble signed-gradient descent.

Maps (image, ensemble weights, warm-start delta) to a budget-feasible
perturbation via T projected signed-gradient steps on the ensemble loss.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, check_int, check_number
from .losses import FUSION_KINDS, AttackGoal, LossKind, check_weights, ensemble_input_gradient

# relative slack for the l2 feasibility predicate: one projection leaves
# ||delta|| <= eps*(1 + ~2e-7) in float32, and the projection itself only
# rescales when the norm exceeds eps*(1 + 1e-6), making it idempotent
_L2_SLACK = 1e-6


@dataclass(frozen=True)
class Budget:
    norm: str  # "linf" or "l2"
    eps: float  # radius in pixel units on the [0,1] scale

    def __post_init__(self):
        if self.norm not in ("linf", "l2"):
            raise ValueError(f"unknown norm {self.norm!r}")
        check_number("eps", self.eps)
        _check_float32("eps", self.eps)


def _check_float32(name: str, value) -> None:
    """ValueError unless ``value`` stays finite as the float32 the PM steps
    in: a finite 1e39 overflows there, and the PM would return NaN."""
    with np.errstate(over="ignore"):
        if not np.isfinite(np.float32(value)):
            raise ValueError(f"{name} must be finite in float32, got {value!r}")


def default_step(budget: Budget, steps: int) -> float:
    """Step size 3*eps/T: three times the budget-covering base step."""
    check_int("steps", steps, 1)
    return 3.0 * budget.eps / steps


@dataclass(frozen=True)
class PMConfig:
    budget: Budget
    steps: int = 10
    step_size: float | None = None  # None -> default_step(budget, steps)
    loss: LossKind = field(default_factory=LossKind)
    fusion: str = "weighted_loss"

    def __post_init__(self):
        check_int("steps", self.steps, 1)
        check_number("steps", self.steps)  # an int beyond the float range
        if self.step_size is not None:
            check_number("step_size", self.step_size)
        _check_float32("step size (3*eps/steps by default)", self.resolved_step())
        if self.fusion not in FUSION_KINDS:
            raise ValueError(f"fusion must be one of {FUSION_KINDS}, got {self.fusion!r}")

    def resolved_step(self) -> float:
        return self.step_size if self.step_size is not None else default_step(self.budget, self.steps)


def project(delta: np.ndarray, x: np.ndarray, budget: Budget) -> np.ndarray:
    """Project onto {||delta|| <= eps} intersected with {x+delta in [0,1]}.

    Norm projection first, then the box clamp. The clamp moves entries
    toward an interval containing 0, so it never increases any norm and the
    composition is idempotent (bitwise, in float32).
    """
    delta = np.asarray(delta, dtype=np.float32)
    x = np.asarray(x, dtype=np.float32)
    if delta.shape != x.shape:
        raise ShapeError(f"delta shape {delta.shape} does not match image {x.shape}")
    eps = budget.eps
    if budget.norm == "linf":
        e = np.float32(eps)
        out = np.clip(delta, -e, e)
    else:
        n = float(np.sqrt(np.sum(delta.astype(np.float64) ** 2)))
        out = delta * np.float32(eps / n) if n > eps * (1.0 + _L2_SLACK) else delta
    return np.clip(out, -x, np.float32(1.0) - x)


def is_feasible(delta: np.ndarray, x: np.ndarray, budget: Budget) -> bool:
    """Budget and pixel-range check with float32-rounding slack on l2."""
    delta = np.asarray(delta, dtype=np.float32)
    x = np.asarray(x, dtype=np.float32)
    x_adv = x + delta
    if float(x_adv.min()) < 0.0 or float(x_adv.max()) > 1.0:
        return False
    if budget.norm == "linf":
        return float(np.abs(delta).max()) <= np.float32(budget.eps)
    n = float(np.sqrt(np.sum(delta.astype(np.float64) ** 2)))
    return n <= budget.eps * (1.0 + 2.0 * _L2_SLACK)


def pm_run(x, goal: AttackGoal, models, w, delta_init, cfg: PMConfig, on_step=None):
    """T iterations of delta <- project(delta - lambda*sign(grad L_ens)).

    delta_init is projected once on entry, so any caller-supplied warm start
    is safe. ``on_step(t, delta)`` is called after each iteration when given
    (instrumentation only; it must not mutate delta). Returns (delta, x_star)
    with x_star = x + delta. ValueError if x or delta_init is not finite;
    before any forward runs, EnsembleArityError unless losses.check_weights
    accepts w, and ShapeError unless every model takes x's shape.

    A step is a deterministic function of delta, so once a step gives back
    the bits of the delta one step back (a fixed point) or two steps back
    (a 2-cycle), every later step repeats with that period: the loop stops
    taking gradients there and calls on_step, for each step left, with the
    delta that step would give. The result is bitwise that of all T steps.
    Bit equality, not a zero gradient, is the test: a nonzero gradient
    whose step the projection undoes is a fixed point too. Longer cycles
    (some l2 runs have them) take every step.
    """
    x = np.asarray(x, dtype=np.float32)
    delta_init = np.asarray(delta_init, dtype=np.float32)
    w = check_weights(len(models), w)
    if not np.isfinite(x).all():
        raise ValueError("pm_run image has pixels that are not finite")
    if not np.isfinite(delta_init).all():
        raise ValueError("pm_run delta_init has entries that are not finite")
    lam = np.float32(cfg.resolved_step())
    delta = project(delta_init, x, cfg.budget)
    back = [delta]  # the deltas of the last two steps, the newest last
    period = 0
    for t in range(cfg.steps):
        if period:
            delta = back[-period]
        else:
            g = ensemble_input_gradient(models, x, delta, w, cfg.fusion, cfg.loss, goal)
            delta = project(delta - lam * np.sign(g), x, cfg.budget)
            # the bits, not the values: array_equal would take -0.0 for +0.0
            bits = delta.tobytes()
            period = next((p for p, d in enumerate(reversed(back), 1) if d.tobytes() == bits), 0)
        back = [back[-1], delta]
        if on_step is not None:
            on_step(t, delta)
    return delta, x + delta

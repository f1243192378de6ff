"""Outer search over ensemble weights, driven by victim queries.

The attack walks the weight simplex by coordinate steps: each outer
iteration perturbs one coordinate up and down, re-normalizes, lets the
perturbation machine rebuild delta for both candidates (warm-started from
the incumbent delta), and asks the victim which candidate looks best. Two
reference pathways share the same machinery: a whitebox variant that
replaces queries with a finite-difference weight gradient, and a hard-label
variant that replays a pre-built query set against a label-only oracle.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from . import nn
from . import pm as pm_mod
from .losses import AttackGoal, LossKind, single_loss
from .oracle import is_success, require_soft
from .prng import stream


@dataclass(frozen=True)
class SearchConfig:
    pm: pm_mod.PMConfig
    max_queries: int = 50
    eta: float | None = None  # None -> 1/(10N)
    order: str = "cyclic"  # or "random"
    order_seed: int = 0
    select_rule: str = "monotone_three_way"  # or "paper_two_way"

    def __post_init__(self):
        if type(self.max_queries) is not int or self.max_queries < 1:
            raise ValueError(f"max_queries must be an integer >= 1, got {self.max_queries!r}")
        if self.eta is not None and not self.eta > 0:
            raise ValueError("eta must be positive")
        if self.order not in ("cyclic", "random"):
            raise ValueError(f"unknown order {self.order!r}")
        if self.select_rule not in ("monotone_three_way", "paper_two_way"):
            raise ValueError(f"unknown select_rule {self.select_rule!r}")

    def resolved_eta(self, n: int) -> float:
        return self.eta if self.eta is not None else 1.0 / (10.0 * n)


@dataclass
class QueryEvent:
    query_index: int  # 1-based, counts every victim query
    coordinate: int  # simplex coordinate being probed; -1 for init/queryset
    candidate_tag: str  # "init" | "plus" | "minus" | "queryset"
    victim_loss: float  # NaN for hard-label responses
    success_flag: bool


@dataclass
class IterationRecord:
    iteration: int  # 0 is the initial equal-weights state
    coordinate: int
    accepted: str  # which candidate won: "init" | "incumbent" | "plus" | "minus"
    w: np.ndarray
    victim_loss: float
    success: bool
    delta: np.ndarray  # accepted delta (copy)
    warm_start: np.ndarray  # the delta_init every PM call of this iteration used


@dataclass
class AttackOutcome:
    success: bool
    delta: np.ndarray
    q_used: int
    w_final: np.ndarray | None
    events: list = field(default_factory=list)  # QueryEvent per victim query
    trajectory: list = field(default_factory=list)  # IterationRecord per outer iteration


def normalize_weights(v) -> np.ndarray:
    """Clamp negatives to zero and scale to sum 1; all-zero falls back to
    uniform."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("weights must be a nonempty vector")
    v = np.maximum(v, 0.0)
    s = v.sum()
    if s == 0.0:
        return np.full(v.size, 1.0 / v.size)
    return v / s


def coordinate_pair(w, n: int, eta: float):
    """The two renormalized candidates with w_n nudged by +eta / -eta."""
    w = np.asarray(w, dtype=np.float64)
    if not 0 <= n < w.size:
        raise ValueError(f"coordinate {n} out of range for N={w.size}")
    up = w.copy()
    up[n] += eta
    down = w.copy()
    down[n] -= eta
    return normalize_weights(up), normalize_weights(down)


def _coordinate_schedule(order: str, n: int, seed: int):
    """Yields the coordinate for outer iteration 1, 2, ... Cyclic visits
    0..N-1 in turn; random draws a fresh seeded permutation per cycle."""
    k = 0
    perm = None
    while True:
        if order == "cyclic":
            yield k % n
        else:
            if k % n == 0:
                perm = stream(seed, f"order/{k // n}").permutation(n)
            yield int(perm[k % n])
        k += 1


def _victim_loss(resp, goal: AttackGoal, loss: LossKind) -> float:
    if resp.logits is None:
        return float("nan")
    return single_loss(resp.logits, goal, loss)


def _coordinate_search(x, goal: AttackGoal, surrogates, cfg: SearchConfig, budget: int,
                       evaluate):
    """The coordinate search both query pathways run.

    ``evaluate(delta, x_star, coordinate, tag) -> (loss, stop)`` scores each
    PM output, at most ``budget`` times, the equal-weights start first. Each
    outer iteration scores the plus candidate and, while the budget lasts,
    the minus candidate, then accepts the lowest loss among the candidates
    of ``cfg.select_rule``; a candidate that returns stop is accepted at
    once and ends the search. Returns (trajectory, stopped, delta, w).
    """
    n = len(surrogates)
    eta = cfg.resolved_eta(n)
    w = np.full(n, 1.0 / n)
    delta, x_star = pm_mod.pm_run(x, goal, surrogates, w, np.zeros_like(x), cfg.pm)
    loss, stop = evaluate(delta, x_star, -1, "init")
    trajectory = [IterationRecord(0, -1, "init", w.copy(), loss, stop, delta.copy(),
                                  np.zeros_like(x))]
    used = 1

    schedule = _coordinate_schedule(cfg.order, n, cfg.order_seed)
    iteration = 0
    while not stop and used < budget:
        iteration += 1
        coord = next(schedule)
        warm = delta.copy()
        candidates = [("incumbent", w, delta, loss)] if cfg.select_rule == "monotone_three_way" else []
        for tag, w_cand in zip(("plus", "minus"), coordinate_pair(w, coord, eta)):
            if used == budget:
                break
            d, xs = pm_mod.pm_run(x, goal, surrogates, w_cand, warm, cfg.pm)
            cand_loss, stop = evaluate(d, xs, coord, tag)
            used += 1
            candidates.append((tag, w_cand, d, cand_loss))
            if stop:
                break
        # min loss; ties keep the earliest listed (incumbent, then plus, then
        # minus)
        tag, w, delta, loss = candidates[-1] if stop else min(candidates, key=lambda c: c[3])
        trajectory.append(IterationRecord(iteration, coord, tag, w.copy(), loss, stop,
                                          delta.copy(), warm))
    return trajectory, stop, delta, w


def bases_attack(x, goal: AttackGoal, oracle, surrogates, cfg: SearchConfig) -> AttackOutcome:
    """Coordinate search on the weight simplex under a hard query budget.

    Query accounting: the equal-weights initial state costs query 1; each
    outer iteration costs two (w-plus then w-minus), except that the minus
    query is skipped when the budget would be exceeded or the plus query
    already succeeded. Stops at first success or at q == max_queries.
    """
    require_soft(oracle)
    x = np.asarray(x, dtype=np.float32)
    if len(surrogates) < 1:
        raise ValueError("need at least one surrogate")
    events = []

    def ask(delta, x_star, coordinate, tag):
        resp = oracle.query(x_star, goal)
        loss = _victim_loss(resp, goal, cfg.pm.loss)
        ok = is_success(resp.label, goal)
        events.append(QueryEvent(len(events) + 1, coordinate, tag, loss, ok))
        return loss, ok

    trajectory, success, delta, w = _coordinate_search(x, goal, surrogates, cfg,
                                                       cfg.max_queries, ask)
    return AttackOutcome(success, delta, len(events), w, events, trajectory)


def estimate_weight_gradient(x, goal: AttackGoal, victim_model, surrogates, w,
                             delta_init, cfg: SearchConfig) -> np.ndarray:
    """Central-difference gradient of the victim loss w.r.t. the weights,
    with step cfg.resolved_eta(N).

    Each probe evaluates L_v at the PM output for the renormalized candidate
    weight vector, warm-started from the same delta_init (2N PM runs)."""
    n = len(surrogates)
    h = cfg.resolved_eta(n)
    grad = np.zeros(n)
    for i in range(n):
        w_plus, w_minus = coordinate_pair(w, i, h)
        vals = []
        for cand in (w_plus, w_minus):
            _, x_star = pm_mod.pm_run(x, goal, surrogates, cand, delta_init, cfg.pm)
            vals.append(single_loss(nn.forward(victim_model, x_star), goal, cfg.pm.loss))
        grad[i] = (vals[0] - vals[1]) / (2.0 * h)
    return grad


def whitebox_weight_attack(x, goal: AttackGoal, victim_model, surrogates,
                           cfg: SearchConfig, iterations: int | None = None) -> AttackOutcome:
    """Whitebox reference: full weight-gradient steps instead of queries.

    Per iteration the victim-loss gradient w.r.t. w is estimated by central
    differences over all N coordinates, then w moves one eta along the
    normalized gradient direction (sup-norm scaling keeps the move size
    comparable to the blackbox coordinate step). No victim queries are
    counted; iterations defaults to the blackbox outer-iteration count
    (max_queries - 1) // 2 so success-vs-iteration curves line up.
    """
    x = np.asarray(x, dtype=np.float32)
    n = len(surrogates)
    eta = cfg.resolved_eta(n)
    if iterations is None:
        iterations = (cfg.max_queries - 1) // 2

    trajectory = []

    def evaluate(wv, warm, iteration, accepted):
        d, x_star = pm_mod.pm_run(x, goal, surrogates, wv, warm, cfg.pm)
        z = nn.forward(victim_model, x_star)
        loss = single_loss(z, goal, cfg.pm.loss)
        ok = is_success(int(np.argmax(z)), goal)
        trajectory.append(IterationRecord(iteration, -1, accepted, wv.copy(), loss, ok,
                                          d.copy(), np.asarray(warm, dtype=np.float32).copy()))
        return d, loss, ok

    w = np.full(n, 1.0 / n)
    delta, loss, ok = evaluate(w, np.zeros_like(x), 0, "init")
    if ok:
        return AttackOutcome(True, delta, 0, w, [], trajectory)

    for it in range(1, iterations + 1):
        g = estimate_weight_gradient(x, goal, victim_model, surrogates, w, delta, cfg)
        scale = float(np.abs(g).max())
        if scale > 0.0:
            w = normalize_weights(w - eta * (g / scale))
        delta, loss, ok = evaluate(w, delta, it, "step")
        if ok:
            return AttackOutcome(True, delta, 0, w, [], trajectory)
    return AttackOutcome(False, delta, 0, w, [], trajectory)


def hardlabel_queryset(x, goal: AttackGoal, surrogate_victim, surrogates,
                       cfg: SearchConfig, q_total: int | None = None) -> list:
    """The score-based loop run against a whitebox stand-in victim, without
    termination, recording delta at every stand-in evaluation. The first
    entry is the equal-weights PM output; the list has exactly q_total
    entries (default cfg.max_queries)."""
    x = np.asarray(x, dtype=np.float32)
    deltas = []

    def stand_in(delta, x_star, coordinate, tag):
        deltas.append(delta.copy())
        return single_loss(nn.forward(surrogate_victim, x_star), goal, cfg.pm.loss), False

    _coordinate_search(x, goal, surrogates, cfg,
                       q_total if q_total is not None else cfg.max_queries, stand_in)
    return deltas


def hardlabel_attack(x, goal: AttackGoal, queryset, hard_oracle) -> AttackOutcome:
    """Sequential replay of a stored query set against a label-only oracle:
    stops at the first success, else exhausts the set."""
    x = np.asarray(x, dtype=np.float32)
    events = []
    for k, delta in enumerate(queryset, start=1):
        resp = hard_oracle.query(x + delta, goal)
        ok = is_success(resp.label, goal)
        events.append(QueryEvent(k, -1, "queryset", _victim_loss(resp, goal, LossKind()), ok))
        if ok:
            return AttackOutcome(True, delta, k, None, events, [])
    last = queryset[-1] if queryset else np.zeros_like(x)
    return AttackOutcome(False, last, len(queryset), None, events, [])


def export_query_log_csv(outcome: AttackOutcome, path) -> None:
    """One row per victim query: query_index, coordinate, candidate_tag,
    victim_loss, success_flag (success as 1/0)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_index", "coordinate", "candidate_tag",
                         "victim_loss", "success_flag"])
        for ev in outcome.events:
            writer.writerow([ev.query_index, ev.coordinate, ev.candidate_tag,
                             repr(ev.victim_loss), int(ev.success_flag)])

"""Outer search over ensemble weights, driven by victim queries.

The attack walks the weight simplex by coordinate steps: each outer
iteration perturbs one coordinate up and down, re-normalizes, lets the
perturbation machine rebuild delta for both candidates (warm-started from
the incumbent delta), and asks the victim which candidate looks best. Two
reference pathways share the same machinery: a whitebox variant that
replaces queries with a finite-difference weight gradient, and a hard-label
variant that replays a pre-built query set against a label-only oracle.
Every pathway runs the PM and scores its output through one probe
(``prober``), and nowhere else.
"""

from dataclasses import dataclass, field

import numpy as np

from . import pm as pm_mod
from .errors import check_int, check_number
from .losses import AttackGoal, LossKind, single_loss
from .oracle import LocalOracle, is_success, require_soft
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
        check_int("max_queries", self.max_queries, 1)
        if self.eta is not None:
            check_number("eta", self.eta)
        if self.order not in ("cyclic", "random"):
            raise ValueError(f"unknown order {self.order!r}")
        check_int("order_seed", self.order_seed)
        if self.select_rule not in ("monotone_three_way", "paper_two_way"):
            raise ValueError(f"unknown select_rule {self.select_rule!r}")

    def resolved_eta(self, n: int) -> float:
        """The coordinate step for ``n`` surrogates; every pathway asks for
        it before its first PM run, so an empty ensemble is refused here."""
        if n < 1:
            raise ValueError("need at least one surrogate")
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


def score_victim(oracle, x_star, goal: AttackGoal, loss: LossKind) -> tuple:
    """(victim loss, success) of one query of ``x_star``: every pathway
    scores its PM outputs here. The loss is NaN for a hard-label reply."""
    resp = oracle.query(x_star, goal)
    value = float("nan") if resp.logits is None else single_loss(resp.logits, goal, loss)[0]
    return value, is_success(resp.label, goal)


def prober(x, goal: AttackGoal, surrogates, pm_cfg: pm_mod.PMConfig, oracle):
    """``probe(w, warm) -> (delta, victim loss, success)``: the PM's output
    at weights ``w`` from the warm start ``warm``, scored by one query of
    ``oracle``. Every pathway runs the PM only through a probe.

    ``pm_run`` is a pure function of ``(w, warm)`` here, so the probe keeps
    each run's delta, read-only, keyed on the bits and shapes of ``w`` as
    float64 and ``warm`` as float32, and runs the PM once per key; byte
    keys keep -0.0 and +0.0 apart, so a hit is exact. Every probe still
    queries ``oracle``, with ``x + delta``: the bits of ``pm_run``'s
    ``x_star``. The memo lives as long as the probe."""
    x = np.asarray(x, dtype=np.float32)
    memo = {}

    def probe(w, warm):
        w, warm = np.asarray(w, dtype=np.float64), np.asarray(warm, dtype=np.float32)
        key = (w.shape, w.tobytes(), warm.shape, warm.tobytes())
        if key not in memo:
            delta, _ = pm_mod.pm_run(x, goal, surrogates, w, warm, pm_cfg)
            delta.flags.writeable = False
            memo[key] = delta
        delta = memo[key]
        return (delta, *score_victim(oracle, x + delta, goal, pm_cfg.loss))
    return probe


def _coordinate_search(x, n: int, cfg: SearchConfig, probe):
    """The coordinate search both query pathways run over ``n`` surrogates.

    It probes at most ``cfg.max_queries`` times, the equal-weights start
    first. Each outer iteration probes the plus candidate and, while the
    budget lasts, the minus candidate, then accepts the lowest loss among
    the candidates of ``cfg.select_rule``; a successful candidate is
    accepted at once and ends the search. Returns (trajectory, asked), with
    (coordinate, tag, delta, loss, success) in ``asked`` for each probe.
    """
    eta = cfg.resolved_eta(n)
    w = np.full(n, 1.0 / n)
    delta, loss, stop = probe(w, np.zeros_like(x))
    asked = [(-1, "init", delta, loss, stop)]
    trajectory = [IterationRecord(0, -1, "init", w.copy(), loss, stop, delta.copy(),
                                  np.zeros_like(x))]
    schedule = _coordinate_schedule(cfg.order, n, cfg.order_seed)
    while not stop and len(asked) < cfg.max_queries:
        coord = next(schedule)
        warm = delta.copy()
        candidates = [("incumbent", w, delta, loss)] if cfg.select_rule == "monotone_three_way" else []
        for tag, w_cand in zip(("plus", "minus"), coordinate_pair(w, coord, eta)):
            if len(asked) == cfg.max_queries:
                break
            d, cand_loss, stop = probe(w_cand, warm)
            asked.append((coord, tag, d, cand_loss, stop))
            candidates.append((tag, w_cand, d, cand_loss))
            if stop:
                break
        # min loss; ties keep the earliest listed (incumbent, then plus, then
        # minus)
        tag, w, delta, loss = candidates[-1] if stop else min(candidates, key=lambda c: c[3])
        trajectory.append(IterationRecord(len(trajectory), coord, tag, w.copy(), loss, stop,
                                          delta.copy(), warm))
    return trajectory, asked


def bases_attack(x, goal: AttackGoal, oracle, surrogates, cfg: SearchConfig) -> AttackOutcome:
    """Coordinate search on the weight simplex under a hard query budget.

    Query accounting: the equal-weights initial state costs query 1; each
    outer iteration costs two (w-plus then w-minus), except that the minus
    query is skipped when the budget would be exceeded or the plus query
    already succeeded. Stops at first success or at q == max_queries.
    """
    require_soft(oracle)
    x = np.asarray(x, dtype=np.float32)
    trajectory, asked = _coordinate_search(x, len(surrogates), cfg,
                                           prober(x, goal, surrogates, cfg.pm, oracle))
    events = [QueryEvent(k, coord, tag, loss, ok)
              for k, (coord, tag, _, loss, ok) in enumerate(asked, start=1)]
    last = trajectory[-1]
    return AttackOutcome(last.success, last.delta, len(events), last.w, events, trajectory)


def _weight_gradient(probe, n: int, w, warm, h: float) -> np.ndarray:
    """Central differences of the probed victim loss over the first ``n``
    weights of ``w``, each from ``warm``, with step ``h`` (2n probes)."""
    grad = np.zeros(n)
    for i in range(n):
        (_, up, _), (_, down, _) = (probe(cand, warm) for cand in coordinate_pair(w, i, h))
        grad[i] = (up - down) / (2.0 * h)
    return grad


def estimate_weight_gradient(x, goal: AttackGoal, victim_model, surrogates, w,
                             delta_init, cfg: SearchConfig) -> np.ndarray:
    """Central-difference gradient of the victim loss w.r.t. the weights,
    with step cfg.resolved_eta(N).

    Each probe evaluates L_v at the PM output for the renormalized candidate
    weight vector, warm-started from the same delta_init (2N PM runs), as
    an in-process oracle of ``victim_model`` scores it."""
    h = cfg.resolved_eta(len(surrogates))
    probe = prober(x, goal, surrogates, cfg.pm, LocalOracle(victim_model))
    return _weight_gradient(probe, len(surrogates), w, delta_init, h)


def whitebox_weight_attack(x, goal: AttackGoal, victim_model, surrogates,
                           cfg: SearchConfig) -> AttackOutcome:
    """Whitebox reference: full weight-gradient steps instead of queries.

    Per iteration the victim-loss gradient w.r.t. w is estimated by central
    differences over all N coordinates, then w moves one eta along the
    normalized gradient direction (sup-norm scaling keeps the move size
    comparable to the blackbox coordinate step). No victim queries are
    counted; it runs the blackbox outer-iteration count (max_queries - 1) // 2,
    so success-vs-iteration curves line up. One in-process oracle of
    ``victim_model`` scores every probe.
    """
    x = np.asarray(x, dtype=np.float32)
    n = len(surrogates)
    eta = cfg.resolved_eta(n)
    probe = prober(x, goal, surrogates, cfg.pm, LocalOracle(victim_model))
    w, delta, ok = np.full(n, 1.0 / n), np.zeros_like(x), False
    trajectory = []
    while not ok and len(trajectory) <= (cfg.max_queries - 1) // 2:
        if trajectory:
            g = _weight_gradient(probe, n, w, delta, eta)
            scale = float(np.abs(g).max())
            if scale > 0.0:
                w = normalize_weights(w - eta * (g / scale))
        warm = delta
        delta, loss, ok = probe(w, warm)
        trajectory.append(IterationRecord(len(trajectory), -1, "step" if trajectory else "init",
                                          w.copy(), loss, ok, delta.copy(), warm.copy()))
    return AttackOutcome(ok, delta, 0, w, [], trajectory)


def hardlabel_queryset(x, goal: AttackGoal, surrogate_victim, surrogates,
                       cfg: SearchConfig) -> list:
    """The score-based loop run against an in-process oracle of a whitebox
    stand-in victim, without termination, recording delta at every
    stand-in query. The first entry is the equal-weights PM output; the
    list has exactly cfg.max_queries entries."""
    x = np.asarray(x, dtype=np.float32)
    probe = prober(x, goal, surrogates, cfg.pm, LocalOracle(surrogate_victim))
    # a stand-in's success never stops the search
    _, asked = _coordinate_search(x, len(surrogates), cfg,
                                  lambda w, warm: (*probe(w, warm)[:2], False))
    return [delta for _, _, delta, _, _ in asked]


def hardlabel_attack(x, goal: AttackGoal, queryset, hard_oracle) -> AttackOutcome:
    """Sequential replay of a stored query set against a label-only oracle:
    stops at the first success, else exhausts the set."""
    x = np.asarray(x, dtype=np.float32)
    events = []
    for k, delta in enumerate(queryset, start=1):
        loss, ok = score_victim(hard_oracle, x + delta, goal, LossKind())
        events.append(QueryEvent(k, -1, "queryset", loss, ok))
        if ok:
            return AttackOutcome(True, delta, k, None, events, [])
    last = queryset[-1] if queryset else np.zeros_like(x)
    return AttackOutcome(False, last, len(queryset), None, events, [])


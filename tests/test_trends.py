"""Behavioral trends on the trained model zoo.

These assert directional properties of the attack system (transfer strength,
optimizer descent, robustness to schedule choice) rather than exact values.
"""

import numpy as np
import pytest

from ensattack import nn, pm, search, zoo
from ensattack.harness import pick_target
from ensattack.losses import AttackGoal, LossKind, ensemble_loss
from ensattack.oracle import LocalOracle, is_success

EPS = 16.0 / 255.0


@pytest.fixture(scope="module")
def scene(zoo_bundle):
    manifest, dataset, models = zoo_bundle
    surrogates = [models[s] for s in zoo.surrogate_ids(manifest)]
    victim = models["victim-cnn"]
    test = dataset.test_split()
    cases = []
    for i in range(len(test)):
        if len(cases) >= 20:
            break
        x, y = test.images[i], int(test.labels[i])
        z = nn.forward(victim, x)
        if int(np.argmax(z)) != y:
            continue
        target = pick_target(z, "easiest", y)
        if target == y:
            continue
        cases.append((x, AttackGoal("targeted", target)))
    assert len(cases) == 20
    return surrogates, victim, cases


def _search_cfg(**kw):
    kw.setdefault("max_queries", 50)
    return search.SearchConfig(
        pm=pm.PMConfig(budget=pm.Budget("linf", EPS), steps=10), **kw)


def test_generous_budget_fools_most_surrogates(scene):
    surrogates, _, cases = scene
    cfg = pm.PMConfig(budget=pm.Budget("linf", 0.3), steps=10)
    w = np.full(len(surrogates), 1.0 / len(surrogates))
    fracs = []
    for x, goal in cases:
        _, x_star = pm.pm_run(x, goal, surrogates, w, np.zeros_like(x), cfg)
        hits = sum(int(np.argmax(nn.forward(m, x_star))) == goal.label for m in surrogates)
        fracs.append(hits / len(surrogates))
    assert float(np.mean(fracs)) >= 0.9


def test_more_steps_reduce_ensemble_loss(scene):
    surrogates, _, cases = scene
    w = np.full(len(surrogates), 1.0 / len(surrogates))
    kind = LossKind()

    def mean_loss(steps):
        vals = []
        for x, goal in cases:
            cfg = pm.PMConfig(budget=pm.Budget("linf", EPS), steps=steps)
            delta, x_star = pm.pm_run(x, goal, surrogates, w, np.zeros_like(x), cfg)
            outputs = [nn.forward(m, x_star) for m in surrogates]
            vals.append(ensemble_loss(outputs, w, "weighted_loss", kind, goal))
        return float(np.mean(vals))

    assert mean_loss(10) < mean_loss(1)


def test_victim_inside_ensemble_succeeds_immediately(scene):
    _, victim, cases = scene
    cfg = _search_cfg()
    for x, goal in cases:
        out = search.bases_attack(x, goal, LocalOracle(victim), [victim], cfg)
        assert out.success and out.q_used == 1


def test_single_query_run_equals_transfer_baseline(scene):
    surrogates, victim, cases = scene
    cfg = _search_cfg(max_queries=1)
    w = np.full(len(surrogates), 1.0 / len(surrogates))
    for x, goal in cases:
        out = search.bases_attack(x, goal, LocalOracle(victim), surrogates, cfg)
        assert out.q_used == 1
        _, x_star = pm.pm_run(x, goal, surrogates, w, np.zeros_like(x), cfg.pm)
        baseline = is_success(LocalOracle(victim).query(x_star).label, goal)
        assert out.success == baseline
        assert np.array_equal(out.delta + x, x_star)


def test_success_rate_insensitive_to_coordinate_order(scene):
    surrogates, victim, cases = scene

    def rate(order, seed):
        wins = 0
        for x, goal in cases:
            cfg = _search_cfg(order=order, order_seed=seed)
            out = search.bases_attack(x, goal, LocalOracle(victim), surrogates, cfg)
            wins += int(out.success)
        return wins / len(cases)

    r1 = rate("random", 1)
    r2 = rate("random", 2)
    rc = rate("cyclic", 0)
    assert abs(r1 - r2) <= 0.05
    assert abs(r1 - rc) <= 0.05

"""Acceptance gate: every criterion prints one pass/fail line and asserts.

The verdict lines bypass pytest's capture (via capfd.disabled), so a plain
``pytest -v`` shows them inline whether the criterion passes or fails.
"""

import math
import time

import numpy as np
import pytest

import util
from ensattack import client, harness, nn, search, server, zoo
from ensattack import pm as pm_mod
from ensattack.losses import AttackGoal, LossKind
from ensattack.oracle import LocalOracle
from ensattack.prng import stream

EPS = 16.0 / 255.0
N2_IDS = ["cnn-a", "mlp-a"]


@pytest.fixture
def report(capfd):
    def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
        line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  ({detail})"
        with capfd.disabled():
            print(line, flush=True)

    return _report


def _search_cfg(**kw):
    kw.setdefault("max_queries", 50)
    return search.SearchConfig(
        pm=pm_mod.PMConfig(budget=pm_mod.Budget("linf", EPS), steps=10), **kw)


def _goal_cases(models, victim_id, test, limit=None, policy="easiest"):
    """The shared screening rule: attack every correctly-classified image."""
    victim = models[victim_id]
    cases = []
    for i in range(min(100, len(test))):
        if limit is not None and len(cases) >= limit:
            break
        x, y = test.images[i], int(test.labels[i])
        z = nn.forward(victim, x)
        if int(np.argmax(z)) != y:
            continue
        target = harness.pick_target(z, policy, y, rng=stream(7, f"target/{i}"))
        cases.append((i, x, AttackGoal("targeted", target)))
    return cases


def _relu_kink_margin(model, x) -> float:
    """Smallest |preactivation| feeding any relu; the model is piecewise
    linear in x, so finite differences are exact only when no unit flips
    sign inside the probe interval."""
    acts = nn._forward_saved(model, np.asarray(x, np.float32))
    margin = np.inf
    for i, layer in enumerate(model.layers):
        if layer.kind == "relu":
            margin = min(margin, float(np.abs(acts[i]).min()))
    return margin


def test_criterion_01_input_gradient_matches_fd(report):
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    seed = 0
    while checked < 100:
        seed += 1
        m = util.tiny_model(300 + seed, arch=seed % 4)
        x = util.rand_image(400 + seed)
        if _relu_kink_margin(m, x) < 0.01:
            continue
        u = util.rand_image(500 + seed, (util.TINY_CLASSES,), "upstream") - np.float32(0.5)
        u64 = u.astype(np.float64)
        g = util.input_gradient(m, x, u).astype(np.float64)
        fd = util.fd_gradient(lambda v: float(u64 @ util.naive_forward(m, v)), x, 1e-3)
        rel = np.linalg.norm(g - fd.astype(np.float64)) / max(np.linalg.norm(g), 1e-12)
        worst = max(worst, rel)
        checked += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-3 and elapsed < 30.0
    report(1, "input gradient vs finite differences (100 pairs)", ok,
            f"max rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-3
    assert elapsed < 30.0


def test_criterion_02_pm_equals_plain_pgd_bitwise(report):
    start = time.perf_counter()
    mismatches = 0
    for k in range(20):
        m = util.tiny_model(600 + k, arch=k % 4)
        x = util.rand_image(700 + k)
        goal = util.targeted(k % util.TINY_CLASSES) if k % 2 else \
            util.untargeted(k % util.TINY_CLASSES)
        norm = "linf" if k % 3 else "l2"
        eps = 0.12 if norm == "linf" else 0.7
        kind = "cw_margin" if k % 4 < 2 else "cross_entropy"
        steps = 4 + k % 5
        cfg = pm_mod.PMConfig(budget=pm_mod.Budget(norm, eps), steps=steps,
                              loss=LossKind(kind))
        init = (util.rand_image(800 + k) - np.float32(0.5)) * np.float32(0.3)
        got, _ = pm_mod.pm_run(x, goal, [m], [1.0], init, cfg)
        ref = util.plain_pgd(m, x, goal, norm, eps, steps, cfg.resolved_step(),
                             init, kind=kind)
        mismatches += int(not np.array_equal(got, ref))
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 10.0
    report(2, "perturbation machine is plain signed-gradient descent at N=1", ok,
            f"{20 - mismatches}/20 bitwise equal, {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 10.0


def test_criterion_03_per_step_feasibility(report):
    checks = 0
    violations = 0
    for k in range(1000):
        n = 1 + k % 3
        models = [util.tiny_model(2000 + 10 * k + j, arch=(k + j) % 4) for j in range(n)]
        x = util.rand_image(3000 + k)
        norm = "linf" if k % 2 else "l2"
        budget = pm_mod.Budget(norm, 0.12 if norm == "linf" else 0.8)
        cfg = pm_mod.PMConfig(budget=budget, steps=10)
        goal = util.targeted(k % util.TINY_CLASSES)
        init = (util.rand_image(4000 + k) - np.float32(0.5)) * np.float32(4.0)
        w = search.normalize_weights(util.rand_image(5000 + k, (n,), "w") + np.float32(0.01))

        def watch(t, delta):
            nonlocal checks, violations
            checks += 1
            violations += int(not pm_mod.is_feasible(delta, x, budget))

        pm_mod.pm_run(x, goal, models, w, init, cfg, on_step=watch)
    ok = violations == 0 and checks >= 10_000
    report(3, "per-step budget and pixel-range feasibility", ok,
            f"{checks} step checks, {violations} violations")
    assert checks >= 10_000
    assert violations == 0


def test_criterion_04_simplex_and_query_accounting(fuzz_runs, report):
    bad = 0
    for entry in fuzz_runs:
        out = entry["outcome"]
        q_max = entry["cfg"].max_queries
        good = out.q_used <= q_max
        good &= entry["oracle"].count == out.q_used
        good &= [ev.query_index for ev in out.events] == list(range(1, out.q_used + 1))
        good &= out.events[0].candidate_tag == "init"
        if out.success:
            good &= out.events[-1].success_flag
            good &= not any(ev.success_flag for ev in out.events[:-1])
        for rec in out.trajectory:
            good &= float(rec.w.min()) >= 0.0
            good &= abs(float(rec.w.sum()) - 1.0) < 1e-9
        bad += int(not good)

    surrogates = [util.tiny_model(6000 + j, j) for j in range(3)]
    orc = util.ScriptedOracle(util.TINY_CLASSES, succeed_at=None)
    cfg7 = search.SearchConfig(
        pm=pm_mod.PMConfig(budget=pm_mod.Budget("linf", EPS), steps=3), max_queries=7)
    out = search.bases_attack(util.rand_image(6000), util.targeted(1), orc,
                              surrogates, cfg7)
    exact7 = out.q_used == 7 and orc.count == 7 and not out.success
    ok = bad == 0 and exact7
    report(4, "simplex membership and query accounting (500 fuzzed runs)", ok,
            f"{len(fuzz_runs) - bad}/{len(fuzz_runs)} clean, Q=7 N=3 used {out.q_used}")
    assert bad == 0
    assert exact7


def test_criterion_05_accepted_loss_monotonicity(fuzz_runs, report):
    bad = 0
    for entry in fuzz_runs:
        losses = [rec.victim_loss for rec in entry["outcome"].trajectory]
        if any(b > a for a, b in zip(losses, losses[1:])):
            bad += 1
    ok = bad == 0
    report(5, "accepted victim loss is non-increasing (500 fuzzed runs)", ok,
            f"{len(fuzz_runs) - bad}/{len(fuzz_runs)} monotone")
    assert bad == 0


def test_criterion_06_ensemble_size_trend(zoo_bundle, attack_batch, report):
    start = time.perf_counter()
    manifest, _, _ = zoo_bundle
    n6 = zoo.surrogate_ids(manifest)
    details = []
    ok = True
    for vid in ("victim-cnn", "victim-mlp"):
        recs6 = attack_batch(vid, n6)
        recs2 = attack_batch(vid, N2_IDS)
        rate6 = np.mean([r["success"] for r in recs6])
        rate2 = np.mean([r["success"] for r in recs2])
        rate_q1 = np.mean([r["success"] and r["q_used"] <= 1 for r in recs6])
        ok &= rate6 >= rate2 - 0.02
        ok &= rate6 > rate_q1
        details.append(f"{vid}: N6 {rate6:.3f} vs N2 {rate2:.3f}, q1 {rate_q1:.3f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 900.0
    report(6, "bigger ensembles and more queries fool more", ok,
            "; ".join(details) + f", {elapsed:.0f}s")
    assert ok


def test_criterion_07_whitebox_blackbox_gap(zoo_bundle, attack_batch, report):
    manifest, dataset, models = zoo_bundle
    n6 = zoo.surrogate_ids(manifest)
    surrogates = [models[s] for s in n6]
    test = dataset.test_split()
    details = []
    ok = True
    for vid in ("victim-cnn", "victim-mlp"):
        bb = np.mean([r["success"] for r in attack_batch(vid, n6)])
        wins = 0
        cases = _goal_cases(models, vid, test)
        for _, x, goal in cases:
            out = search.whitebox_weight_attack(x, goal, models[vid], surrogates,
                                                _search_cfg())
            wins += int(out.success)
        wb = wins / len(cases)
        ok &= abs(wb - bb) <= 0.10
        details.append(f"{vid}: whitebox {wb:.3f} vs blackbox {bb:.3f}")
    report(7, "weight-gradient reference tracks the query attack", ok,
            "; ".join(details))
    assert ok


def test_criterion_08_hardlabel_beats_one_shot(zoo_bundle, report):
    manifest, dataset, models = zoo_bundle
    surrogates = [models[s] for s in zoo.surrogate_ids(manifest)]
    stand_in = models["victim-mlp"]
    victim = models["victim-cnn"]
    test = dataset.test_split()
    cfg = _search_cfg()
    one_shot = 0
    replay = 0
    budget_ok = True
    cases = _goal_cases(models, "victim-cnn", test)
    for _, x, goal in cases:
        qs = search.hardlabel_queryset(x, goal, stand_in, surrogates, cfg)
        budget_ok &= len(qs) == 50
        first_label = int(np.argmax(nn.forward(victim, x + qs[0])))
        one_shot += int(first_label == goal.label)
        out = search.hardlabel_attack(x, goal, qs, LocalOracle(victim, "hard"))
        budget_ok &= out.q_used <= 50
        replay += int(out.success)
    rate_one = one_shot / len(cases)
    rate_replay = replay / len(cases)
    ok = rate_replay >= rate_one and budget_ok
    report(8, "hard-label replay recovers at least the one-shot transfer rate", ok,
            f"replay {rate_replay:.3f} vs one-shot {rate_one:.3f}, n={len(cases)}")
    assert ok


def test_criterion_09_remote_local_trajectory_parity(zoo_bundle, report):
    manifest, dataset, models = zoo_bundle
    surrogates = [models[s] for s in zoo.surrogate_ids(manifest)]
    victim = models["victim-cnn"]
    test = dataset.test_split()
    cases = _goal_cases(models, "victim-cnn", test, limit=50)
    mismatches = 0
    with server.serve(victim, mode="soft") as handle:
        remote = client.connect(handle.url)
        for _, x, goal in cases:
            cfg = _search_cfg()
            local_out = search.bases_attack(x, goal, LocalOracle(victim), surrogates, cfg)
            remote_out = search.bases_attack(x, goal, remote, surrogates, cfg)
            same = local_out.q_used == remote_out.q_used
            same &= local_out.success == remote_out.success
            same &= len(local_out.trajectory) == len(remote_out.trajectory)
            if same:
                for ra, rb in zip(local_out.trajectory, remote_out.trajectory):
                    same &= ra.accepted == rb.accepted
                    same &= ra.coordinate == rb.coordinate
                    same &= bool(np.array_equal(ra.w, rb.w))
            mismatches += int(not same)
    ok = mismatches == 0
    report(9, "remote and in-process oracles yield identical searches (50 images)", ok,
            f"{len(cases) - mismatches}/{len(cases)} identical")
    assert len(cases) == 50
    assert mismatches == 0


def test_criterion_10_simplex_sweep_rows_and_mixture(zoo_bundle, report):
    manifest, dataset, models = zoo_bundle
    test = dataset.test_split()
    cases = _goal_cases(models, "victim-cnn", test, limit=1)
    _, x, goal = cases[0]
    tri = [models["cnn-a"], models["mlp-a"], models["mlp-b"]]
    rows = harness.triangle_sweep(x, goal, tri, models["victim-cnn"], 10,
                                  pm_mod.PMConfig(budget=pm_mod.Budget("linf", EPS),
                                                  steps=10))
    flags = {bool(r[4]) for r in rows}
    ok = len(rows) == 66 and flags == {True, False}
    wins = sum(1 for r in rows if r[4])
    report(10, "3-surrogate simplex sweep emits 66 rows with mixed outcomes", ok,
            f"{len(rows)} rows, {wins} fooling / {len(rows) - wins} not")
    assert len(rows) == 66
    assert flags == {True, False}


def test_criterion_11_target_policy_ordering(zoo_bundle, attack_batch, report):
    manifest, _, _ = zoo_bundle
    n6 = zoo.surrogate_ids(manifest)

    def mean_q(policy):
        if policy == "easiest":
            recs = attack_batch("victim-cnn", n6)[:50]
        else:
            recs = attack_batch("victim-cnn", n6, policy=policy, max_attacked=50)
        assert len(recs) == 50
        return float(np.mean([r["q_used"] if r["success"] else 50 for r in recs]))

    q_easy = mean_q("easiest")
    q_rand = mean_q("random")
    q_hard = mean_q("hardest")
    ok = q_easy <= q_rand <= q_hard
    report(11, "mean queries rank easiest <= random <= hardest (50 images)", ok,
            f"{q_easy:.1f} <= {q_rand:.1f} <= {q_hard:.1f}")
    assert ok


def test_criterion_12_formula_checks(report):
    step = pm_mod.default_step(pm_mod.Budget("linf", 16.0 / 255.0), 10)
    step_ok = step == 3.0 * (16.0 / 255.0) / 10.0
    # The paper prints the l2 radius sqrt(0.001 * D) at D = 3*224*224 on the
    # 0-255 scale as 3128: the exact value 3128.59 truncated, not rounded.
    radius = harness.l2_budget(150528) * 255.0
    exact = 255.0 * math.sqrt(0.001 * 150528)
    radius_ok = math.isclose(radius, exact, rel_tol=1e-12) and math.floor(radius) == 3128
    ok = step_ok and radius_ok
    report(12, "closed-form step size and l2 radius", ok,
           f"default step exact: {step_ok}; l2 radius*255 = {radius:.3f} "
           f"(closed form {exact:.3f}), floor {math.floor(radius)} vs paper's 3128")
    assert step_ok
    assert radius_ok

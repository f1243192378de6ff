import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import util
from ensattack import pm, search
from ensattack.errors import CapabilityError, ShapeError
from ensattack.oracle import LocalOracle, image_digest


def _cfg(max_queries=50, steps=3, eps=0.12, **kw):
    return search.SearchConfig(
        pm=pm.PMConfig(budget=pm.Budget("linf", eps), steps=steps), max_queries=max_queries, **kw)


# ---------------------------------------------------------------------------
# weight utilities

def test_normalize_weights_examples():
    out = search.normalize_weights([0.2, -0.1, 0.9])
    assert np.allclose(out, [2 / 11, 0.0, 9 / 11], rtol=0, atol=1e-15)
    assert out[1] == 0.0
    exact = search.normalize_weights([0.25, 0.25, 0.25, 0.25])
    assert np.array_equal(exact, np.full(4, 0.25))
    assert np.array_equal(search.normalize_weights([-1.0, -2.0]), [0.5, 0.5])
    assert np.array_equal(search.normalize_weights([0.0, 0.0]), [0.5, 0.5])


def test_normalize_weights_validation():
    for bad in ([], np.zeros((2, 2)), 1.0):
        with pytest.raises(ValueError):
            search.normalize_weights(bad)


@given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=8))
@settings(max_examples=80)
def test_normalize_weights_is_simplex_projection(v):
    w = search.normalize_weights(v)
    assert w.shape == (len(v),)
    assert float(w.min()) >= 0.0
    assert abs(float(w.sum()) - 1.0) < 1e-12
    again = search.normalize_weights(w)
    assert np.allclose(again, w, rtol=0, atol=1e-15)


def test_coordinate_pair_examples():
    up, down = search.coordinate_pair([0.5, 0.5], 0, 0.1)
    assert np.allclose(up, [6 / 11, 5 / 11], rtol=0, atol=1e-15)
    assert np.allclose(down, [4 / 9, 5 / 9], rtol=0, atol=1e-15)
    _, clamped = search.coordinate_pair([0.05, 0.95], 0, 0.1)
    assert np.array_equal(clamped, [0.0, 1.0])
    with pytest.raises(ValueError):
        search.coordinate_pair([0.5, 0.5], 2, 0.1)
    with pytest.raises(ValueError):
        search.coordinate_pair([0.5, 0.5], -1, 0.1)


def test_search_config_validation():
    with pytest.raises(ValueError):
        _cfg(max_queries=0)
    with pytest.raises(ValueError):
        _cfg(eta=0.0)
    with pytest.raises(ValueError):
        _cfg(order="sorted")
    with pytest.raises(ValueError):
        _cfg(select_rule="greedy")
    assert _cfg().resolved_eta(6) == 1.0 / 60.0
    assert _cfg(eta=0.2).resolved_eta(6) == 0.2


def test_search_config_takes_numpy_integers():
    assert _cfg(max_queries=np.int64(5), order_seed=np.uint32(3)) == \
        _cfg(max_queries=5, order_seed=3)


@pytest.mark.parametrize("seed", ["a", None, 1.5, True])
def test_search_config_rejects_an_order_seed_that_is_not_an_integer(seed):
    # under order="random" these used to fail after the first query, or
    # ran as another seed (1.5 as 1, True as 1)
    with pytest.raises(ValueError, match="order_seed"):
        _cfg(order="random", order_seed=seed)


# ---------------------------------------------------------------------------
# query accounting against a scripted victim

def _scripted_run(succeed_at, max_queries=9, n=3, **kw):
    surrogates = [util.tiny_model(70 + j, j) for j in range(n)]
    orc = util.ScriptedOracle(util.TINY_CLASSES, succeed_at)
    out = search.bases_attack(util.rand_image(70), util.targeted(1), orc,
                              surrogates, _cfg(max_queries=max_queries, **kw))
    return out, orc


def test_first_query_is_equal_weights():
    out, _ = _scripted_run(succeed_at=1)
    assert out.success and out.q_used == 1
    assert len(out.events) == 1 and out.events[0].candidate_tag == "init"
    assert np.array_equal(out.w_final, np.full(3, 1 / 3))
    assert len(out.trajectory) == 1 and out.trajectory[0].accepted == "init"
    assert np.array_equal(out.trajectory[0].warm_start, np.zeros(util.TINY_SHAPE, np.float32))


def test_plus_success_costs_even_query_count():
    out, orc = _scripted_run(succeed_at=2)
    assert out.success and out.q_used == 2 and orc.count == 2
    assert [e.candidate_tag for e in out.events] == ["init", "plus"]
    assert out.trajectory[-1].accepted == "plus"
    assert out.trajectory[-1].coordinate == 0


def test_minus_success_costs_odd_query_count():
    out, orc = _scripted_run(succeed_at=3)
    assert out.success and out.q_used == 3 and orc.count == 3
    assert [e.candidate_tag for e in out.events] == ["init", "plus", "minus"]
    assert out.trajectory[-1].accepted == "minus"


def test_no_query_after_success():
    for s in (1, 2, 3, 4, 5):
        out, orc = _scripted_run(succeed_at=s)
        assert out.success and out.q_used == s == orc.count


def test_budget_exhaustion_exact_count():
    out, orc = _scripted_run(succeed_at=None, max_queries=7)
    assert not out.success and out.q_used == 7 == orc.count
    tags = [e.candidate_tag for e in out.events]
    assert tags == ["init", "plus", "minus", "plus", "minus", "plus", "minus"]
    assert [e.coordinate for e in out.events] == [-1, 0, 0, 1, 1, 2, 2]
    assert [e.query_index for e in out.events] == list(range(1, 8))


def test_minus_skipped_on_last_query():
    out, _ = _scripted_run(succeed_at=None, max_queries=2, n=1)
    assert out.q_used == 2
    assert [e.candidate_tag for e in out.events] == ["init", "plus"]


def test_single_query_budget():
    out, _ = _scripted_run(succeed_at=None, max_queries=1)
    assert out.q_used == 1 and not out.success
    assert len(out.trajectory) == 1


def test_scripted_tie_keeps_incumbent_under_monotone_rule():
    out, _ = _scripted_run(succeed_at=None, max_queries=9)
    for rec in out.trajectory[1:]:
        assert rec.accepted == "incumbent"
        assert np.array_equal(rec.w, np.full(3, 1 / 3))


def test_scripted_tie_takes_plus_under_two_way_rule():
    out, _ = _scripted_run(succeed_at=None, max_queries=9, select_rule="paper_two_way")
    for rec in out.trajectory[1:]:
        assert rec.accepted == "plus"


def test_hard_oracle_rejected_before_any_query():
    victim = LocalOracle(util.tiny_model(71, 0), mode="hard")
    with pytest.raises(CapabilityError):
        search.bases_attack(util.rand_image(71), util.targeted(0), victim,
                            [util.tiny_model(72, 1)], _cfg())
    assert victim.count == 0


@pytest.mark.parametrize("pathway", [
    lambda x, goal, victim, cfg: search.bases_attack(x, goal, util.ScriptedOracle(4), [], cfg),
    lambda x, goal, victim, cfg: search.hardlabel_queryset(x, goal, victim, [], cfg),
    lambda x, goal, victim, cfg: search.whitebox_weight_attack(x, goal, victim, [], cfg),
    lambda x, goal, victim, cfg: search.estimate_weight_gradient(
        x, goal, victim, [], np.zeros(0), np.zeros_like(x), cfg),
], ids=["bases_attack", "hardlabel_queryset", "whitebox_weight_attack",
        "estimate_weight_gradient"])
def test_empty_surrogate_list_rejected(pathway):
    # all but bases_attack used to divide by zero, an explicit eta included
    with pytest.raises(ValueError, match="need at least one surrogate"):
        pathway(util.rand_image(73), util.targeted(0), util.tiny_model(73, 0), _cfg(eta=0.05))


# ---------------------------------------------------------------------------
# trajectory structure on a real victim

def _real_run(**kw):
    surrogates = [util.tiny_model(80 + j, j) for j in range(3)]
    victim = LocalOracle(util.tiny_model(88, 2))
    x = util.rand_image(80)
    clean = int(np.argmax(victim.query(x).logits))
    victim2 = LocalOracle(victim.model)
    out = search.bases_attack(x, util.untargeted(clean), victim2, surrogates,
                              _cfg(eps=0.3, **kw))
    return out


def test_warm_start_chains_through_accepted_deltas():
    out = _real_run(max_queries=15)
    assert len(out.trajectory) >= 2
    for prev, rec in zip(out.trajectory, out.trajectory[1:]):
        assert np.array_equal(rec.warm_start, prev.delta)


def test_incumbent_rows_keep_w_and_delta():
    out = _real_run(max_queries=15)
    for prev, rec in zip(out.trajectory, out.trajectory[1:]):
        if rec.accepted == "incumbent":
            assert np.array_equal(rec.w, prev.w)
            assert np.array_equal(rec.delta, prev.delta)
            assert rec.victim_loss == prev.victim_loss


def test_accepted_loss_non_increasing():
    out = _real_run(max_queries=21)
    losses = [rec.victim_loss for rec in out.trajectory]
    for a, b in zip(losses, losses[1:]):
        assert b <= a


def test_weights_stay_on_simplex():
    out = _real_run(max_queries=15)
    for rec in out.trajectory:
        assert float(rec.w.min()) >= 0.0
        assert abs(float(rec.w.sum()) - 1.0) < 1e-9
    for ev in out.events:
        assert ev.candidate_tag in ("init", "plus", "minus")


def test_run_is_deterministic():
    a = _real_run(max_queries=15)
    b = _real_run(max_queries=15)
    assert a.q_used == b.q_used and a.success == b.success
    assert np.array_equal(a.delta, b.delta)
    for ra, rb in zip(a.trajectory, b.trajectory):
        assert ra.accepted == rb.accepted and np.array_equal(ra.w, rb.w)


def test_random_order_is_seeded():
    outs = [_scripted_run(None, max_queries=13, n=4, order="random", order_seed=5)[0]
            for _ in range(2)]
    coords = [[e.coordinate for e in o.events] for o in outs]
    assert coords[0] == coords[1]
    other = _scripted_run(None, max_queries=13, n=4, order="random", order_seed=6)[0]
    assert len({tuple(c) for c in coords + [[e.coordinate for e in other.events]]}) <= 2
    cyclic = _scripted_run(None, max_queries=13, n=4, order="cyclic")[0]
    assert [e.coordinate for e in cyclic.events][1:] == [0, 0, 1, 1, 2, 2, 3, 3, 0, 0, 1, 1]


def test_random_order_covers_each_cycle():
    out, _ = _scripted_run(None, max_queries=17, n=4, order="random", order_seed=3)
    probed = [e.coordinate for e in out.events if e.coordinate >= 0]
    pairs = probed[0::2]
    assert sorted(pairs[:4]) == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# whitebox reference

def test_whitebox_single_surrogate_keeps_unit_weight():
    surrogate = util.tiny_model(90, 0)
    victim = util.const_model(hot=0)
    out = search.whitebox_weight_attack(util.rand_image(90), util.targeted(1),
                                        victim, [surrogate], _cfg(max_queries=9))
    assert not out.success and out.q_used == 0 and out.events == []
    assert len(out.trajectory) == 1 + (9 - 1) // 2
    for rec in out.trajectory:
        assert np.array_equal(rec.w, [1.0])


def test_whitebox_iterations_override_and_simplex():
    surrogates = [util.tiny_model(91 + j, j) for j in range(3)]
    out = search.whitebox_weight_attack(util.rand_image(91), util.targeted(0),
                                        util.const_model(hot=1), surrogates,
                                        _cfg(max_queries=9))
    assert len(out.trajectory) == 5
    assert out.trajectory[0].accepted == "init"
    for rec in out.trajectory[1:]:
        assert rec.accepted == "step"
        assert float(rec.w.min()) >= 0.0 and abs(float(rec.w.sum()) - 1.0) < 1e-9


def test_whitebox_stops_at_success():
    surrogate = util.tiny_model(92, 1)
    victim = surrogate  # attacking the surrogate itself succeeds quickly
    x = util.rand_image(92)
    clean = int(np.argmax(np.asarray(
        LocalOracle(victim).query(x).logits)))
    out = search.whitebox_weight_attack(x, util.untargeted(clean), victim,
                                        [surrogate], _cfg(eps=0.3, steps=10))
    assert out.success
    assert out.trajectory[-1].success


def test_weight_gradient_zero_for_single_surrogate():
    g = search.estimate_weight_gradient(util.rand_image(93), util.targeted(0),
                                        util.tiny_model(93, 2), [util.tiny_model(94, 0)],
                                        np.array([1.0]), np.zeros(util.TINY_SHAPE, np.float32),
                                        _cfg())
    assert np.array_equal(g, [0.0])


def test_weight_gradient_zero_for_identical_surrogates():
    m = util.tiny_model(95, 1)
    g = search.estimate_weight_gradient(util.rand_image(95), util.targeted(2),
                                        util.tiny_model(96, 3), [m, m, m],
                                        np.full(3, 1 / 3), np.zeros(util.TINY_SHAPE, np.float32),
                                        _cfg())
    assert np.array_equal(g, np.zeros(3))


def test_weight_gradient_deterministic_and_finite():
    models = [util.tiny_model(97 + j, j) for j in range(2)]
    args = (util.rand_image(97), util.targeted(1), util.tiny_model(99, 0), models,
            np.array([0.5, 0.5]), np.zeros(util.TINY_SHAPE, np.float32), _cfg())
    g1 = search.estimate_weight_gradient(*args)
    g2 = search.estimate_weight_gradient(*args)
    assert np.array_equal(g1, g2)
    assert g1.shape == (2,) and np.all(np.isfinite(g1))


# ---------------------------------------------------------------------------
# hard-label pathway

def test_hardlabel_queryset_structure():
    surrogates = [util.tiny_model(100 + j, j) for j in range(3)]
    stand_in = util.tiny_model(104, 1)
    x = util.rand_image(100)
    goal = util.targeted(2)
    cfg = _cfg(max_queries=9)
    qs = search.hardlabel_queryset(x, goal, stand_in, surrogates, cfg)
    assert len(qs) == 9
    first, _ = pm.pm_run(x, goal, surrogates, np.full(3, 1 / 3), np.zeros_like(x), cfg.pm)
    assert np.array_equal(qs[0], first)
    for d in qs:
        assert pm.is_feasible(d, x, cfg.pm.budget)
    again = search.hardlabel_queryset(x, goal, stand_in, surrogates, cfg)
    assert all(np.array_equal(a, b) for a, b in zip(qs, again))
    assert len(search.hardlabel_queryset(x, goal, stand_in, surrogates, _cfg(max_queries=4))) == 4


@pytest.mark.parametrize("order", ["cyclic", "random"])
@pytest.mark.parametrize("select_rule", ["monotone_three_way", "paper_two_way"])
def test_hardlabel_queryset_is_the_attack_query_sequence(select_rule, order):
    # against the stand-in itself, the score-based attack queries exactly
    # the query set's first q_used images
    spent_budget = 0
    for k in range(6):
        surrogates = [util.tiny_model(110 + 10 * k + j, j + k) for j in range(1 + k % 3)]
        stand_in = util.tiny_model(150 + k, k)
        x = util.rand_image(110 + k)
        goal = util.targeted(k % util.TINY_CLASSES)
        cfg = _cfg(max_queries=9, select_rule=select_rule, order=order, order_seed=k)
        orc = LocalOracle(stand_in)
        out = search.bases_attack(x, goal, orc, surrogates, cfg)
        qs = search.hardlabel_queryset(x, goal, stand_in, surrogates, cfg)
        assert [image_digest(x + d) for d in qs[:out.q_used]] == [e.digest for e in orc.log]
        spent_budget += int(out.q_used == cfg.max_queries)
    assert spent_budget >= 1


def test_hardlabel_attack_first_query_success():
    x = util.rand_image(101)
    qs = [np.zeros_like(x) for _ in range(5)]
    victim = LocalOracle(util.const_model(hot=3), mode="hard")
    out = search.hardlabel_attack(x, util.targeted(3), qs, victim)
    assert out.success and out.q_used == 1 and victim.count == 1
    assert np.array_equal(out.delta, qs[0])
    assert math.isnan(out.events[0].victim_loss)
    assert out.events[0].candidate_tag == "queryset"


def test_hardlabel_attack_exhausts_on_failure():
    x = util.rand_image(102)
    qs = [np.zeros_like(x) for _ in range(4)]
    victim = LocalOracle(util.const_model(hot=0), mode="hard")
    out = search.hardlabel_attack(x, util.targeted(1), qs, victim)
    assert not out.success and out.q_used == 4 == victim.count
    assert np.array_equal(out.delta, qs[-1])
    assert out.w_final is None


def test_hardlabel_attack_stops_mid_set():
    x = util.rand_image(103)
    qs = [np.full_like(x, 0.001 * k) for k in range(6)]
    orc = util.ScriptedOracle(util.TINY_CLASSES, succeed_at=3)
    out = search.hardlabel_attack(x, util.targeted(1), qs, orc)
    assert out.success and out.q_used == 3 and orc.count == 3
    assert np.array_equal(out.delta, qs[2])



# ---------------------------------------------------------------------------
# every pathway against the loops that ran before probes, bit for bit

FUSIONS = ["weighted_loss", "weighted_logits", "weighted_probabilities"]


def _bits(value):
    a = np.asarray(value)
    return type(value), a.dtype, a.shape, a.tobytes()


def _assert_same(got, want, cls):
    for f in fields(cls):
        assert _bits(getattr(got, f.name)) == _bits(getattr(want, f.name)), (cls.__name__, f.name)


def _assert_same_outcome(got, want):
    assert [_bits(getattr(got, k)) for k in ("success", "delta", "q_used", "w_final")] == \
        [_bits(getattr(want, k)) for k in ("success", "delta", "q_used", "w_final")]
    assert len(got.events) == len(want.events)
    for g, r in zip(got.events, want.events):
        _assert_same(g, r, search.QueryEvent)
    assert len(got.trajectory) == len(want.trajectory)
    for g, r in zip(got.trajectory, want.trajectory):
        _assert_same(g, r, search.IterationRecord)


def _probe_cfg(fusion, max_queries, **kw):
    return search.SearchConfig(
        pm=pm.PMConfig(budget=pm.Budget("linf", 0.2), steps=3, fusion=fusion),
        max_queries=max_queries, **kw)


def _case(k):
    surrogates = [util.tiny_model(300 + 10 * k + j, j + k) for j in range(3)]
    x = util.rand_image(300 + k)
    goal = util.untargeted(k % util.TINY_CLASSES) if k % 2 else util.targeted(k % util.TINY_CLASSES)
    return x, goal, surrogates, util.tiny_model(350 + k, k)


@pytest.mark.parametrize("fusion", FUSIONS)
@pytest.mark.parametrize("order", ["cyclic", "random"])
@pytest.mark.parametrize("select_rule", ["monotone_three_way", "paper_two_way"])
def test_query_pathways_match_the_callback_loop_bitwise(select_rule, order, fusion):
    successes = set()
    for k in range(4):
        x, goal, surrogates, victim = _case(k)
        cfg = _probe_cfg(fusion, 11, select_rule=select_rule, order=order, order_seed=k)
        got_oracle, want_oracle = LocalOracle(victim), LocalOracle(victim)
        got = search.bases_attack(x, goal, got_oracle, surrogates, cfg)
        want = util.ref_bases_attack(x, goal, want_oracle, surrogates, cfg)
        _assert_same_outcome(got, want)
        assert [r.digest for r in got_oracle.log] == [r.digest for r in want_oracle.log]
        successes.add(got.success)

        got_qs = search.hardlabel_queryset(x, goal, victim, surrogates, cfg)
        want_qs = util.ref_hardlabel_queryset(x, goal, victim, surrogates, cfg)
        assert [_bits(d) for d in got_qs] == [_bits(d) for d in want_qs]
        assert len(got_qs) == cfg.max_queries
    # both a search that stops at a success and one that spends its budget
    assert successes == {True, False}


@pytest.mark.parametrize("fusion", FUSIONS)
def test_whitebox_matches_the_oracle_per_estimate_loop_bitwise(fusion):
    cfg = _probe_cfg(fusion, 9)
    for k in range(3):
        x, goal, surrogates, victim = _case(k)
        got = search.whitebox_weight_attack(x, goal, victim, surrogates, cfg)
        _assert_same_outcome(got, util.ref_whitebox_weight_attack(x, goal, victim, surrogates, cfg))
        w, warm = np.array([0.5, 0.3, 0.2]), got.trajectory[0].delta
        assert _bits(search.estimate_weight_gradient(x, goal, victim, surrogates, w, warm, cfg)) \
            == _bits(util.ref_estimate_weight_gradient(x, goal, victim, surrogates, w, warm, cfg))


@pytest.mark.parametrize("fusion", FUSIONS)
def test_stuck_whitebox_matches_the_oracle_per_estimate_loop_bitwise(fusion):
    # a constant victim gives a zero gradient, so w never moves and the
    # attack runs every iteration from the equal weights
    x, _, surrogates, _ = _case(0)
    victim = util.const_model(hot=0)
    cfg = _probe_cfg(fusion, 9)
    got = search.whitebox_weight_attack(x, util.targeted(1), victim, surrogates, cfg)
    _assert_same_outcome(got, util.ref_whitebox_weight_attack(x, util.targeted(1), victim,
                                                              surrogates, cfg))
    assert not got.success and len(got.trajectory) == 5
    assert all(np.array_equal(rec.w, np.full(3, 1 / 3)) for rec in got.trajectory)


# the probe's memo of PM runs

def _memo_probe():
    x, goal, surrogates, victim = _case(0)
    oracle = LocalOracle(victim)
    return x, search.prober(x, goal, surrogates, _probe_cfg("weighted_loss", 9).pm, oracle), oracle


def test_a_repeated_probe_runs_the_pm_once_but_queries_every_time(monkeypatch):
    x, probe, oracle = _memo_probe()
    runs = util.record_calls(monkeypatch, pm, "pm_run")
    w, warm = np.array([0.5, 0.3, 0.2]), np.zeros_like(x)
    first = probe(w, warm)
    again = probe(w.copy(), warm.copy())
    assert len(runs) == 1 and len(oracle.log) == 2
    assert oracle.log[0].digest == oracle.log[1].digest
    assert again[0] is first[0] and _bits(again[1:]) == _bits(first[1:])
    # -0.0 is not +0.0: the key is the bits
    probe(w, -warm)
    assert len(runs) == 2 and len(oracle.log) == 3


def test_probed_deltas_are_read_only():
    x, probe, _ = _memo_probe()
    w, warm = np.full(3, 1 / 3), np.zeros_like(x)
    for delta in (probe(w, warm)[0], probe(w, warm)[0]):
        with pytest.raises(ValueError):
            delta[...] = 0.0


def test_a_warm_start_of_another_shape_misses_the_memo():
    x, probe, _ = _memo_probe()
    w, warm = np.full(3, 1 / 3), np.zeros_like(x)
    probe(w, warm)
    with pytest.raises(ShapeError):
        probe(w, warm.reshape(-1))


def test_two_probers_share_no_runs(monkeypatch):
    x, probe_a, _ = _memo_probe()
    _, probe_b, _ = _memo_probe()
    runs = util.record_calls(monkeypatch, pm, "pm_run")
    w, warm = np.full(3, 1 / 3), np.zeros_like(x)
    assert _bits(probe_a(w, warm)[1]) == _bits(probe_b(w, warm)[1])
    assert len(runs) == 2

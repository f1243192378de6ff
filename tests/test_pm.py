import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import util
from ensattack import losses, nn, pm
from ensattack.errors import EnsembleArityError, ShapeError
from ensattack.losses import LossKind
from ensattack.prng import stream


def test_budget_validation():
    with pytest.raises(ValueError):
        pm.Budget("l1", 0.1)
    with pytest.raises(ValueError):
        pm.Budget("linf", 0.0)


def test_default_step_examples():
    b = pm.Budget("linf", 16.0 / 255.0)
    assert pm.default_step(b, 10) == 3.0 * (16.0 / 255.0) / 10.0
    assert abs(pm.default_step(b, 10) - 0.0188235) < 1e-6
    assert pm.default_step(b, 1) == 3.0 * b.eps
    assert pm.default_step(b, 20) == pytest.approx(pm.default_step(b, 10) / 2.0)
    with pytest.raises(ValueError):
        pm.default_step(b, 0)
    with pytest.raises(ValueError, match="steps must be an integer >= 1"):
        pm.default_step(b, 2.5)
    assert pm.default_step(b, np.int64(20)) == pm.default_step(b, 20)


def test_pm_config_validation():
    b = pm.Budget("linf", 0.1)
    with pytest.raises(ValueError):
        pm.PMConfig(budget=b, steps=0)
    with pytest.raises(ValueError):
        pm.PMConfig(budget=b, step_size=0.0)
    assert pm.PMConfig(budget=b, steps=5).resolved_step() == pm.default_step(b, 5)
    # NumPy integers pass, bools and floats do not, as for every integer setting
    assert pm.PMConfig(budget=b, steps=np.int64(5)) == pm.PMConfig(budget=b, steps=5)
    for steps in (True, 5.0, 10**400):
        with pytest.raises(ValueError, match="steps"):
            pm.PMConfig(budget=b, steps=steps)
    assert pm.PMConfig(budget=b, step_size=0.01).resolved_step() == 0.01


@pytest.mark.parametrize("make", [
    lambda: pm.Budget("linf", 1e39),
    lambda: pm.Budget("l2", 10**39),
    lambda: pm.PMConfig(pm.Budget("linf", 0.1), steps=2, step_size=1e39),
    # eps fits in float32, but the default step 3*eps/T does not
    lambda: pm.PMConfig(pm.Budget("linf", 2e38), steps=1),
], ids=["eps", "int eps", "step_size", "default step"])
def test_numbers_beyond_the_float32_range_are_refused(make):
    # pm_run steps in float32, where these overflow and the PM returned NaN
    with pytest.raises(ValueError, match="float32"):
        make()
    assert pm.PMConfig(pm.Budget("linf", 2e38), steps=2).resolved_step() == 3e38


def test_project_examples():
    x = np.full(2, 0.5, np.float32)
    out = pm.project(np.array([0.2, -0.05], np.float32), x, pm.Budget("linf", 0.1))
    assert np.allclose(out, [0.1, -0.05], atol=1e-7)
    out2 = pm.project(np.array([3.0, 4.0], np.float32), np.zeros(2, np.float32),
                      pm.Budget("l2", 1.0))
    assert np.allclose(out2, [0.6, 0.8], atol=1e-6)
    with pytest.raises(ShapeError):
        pm.project(np.zeros(3, np.float32), np.zeros(2, np.float32), pm.Budget("linf", 0.1))


def test_project_respects_pixel_range():
    x = np.array([0.0, 1.0, 0.5], np.float32)
    out = pm.project(np.array([-0.2, 0.2, 0.9], np.float32), x, pm.Budget("linf", 0.5))
    adv = x + out
    assert float(adv.min()) >= 0.0 and float(adv.max()) <= 1.0
    assert np.allclose(out, [0.0, 0.0, 0.5])


@given(st.integers(0, 10**6), st.sampled_from(["linf", "l2"]), st.floats(0.02, 0.8))
@settings(max_examples=60)
def test_project_idempotent_and_feasible(seed, norm, eps):
    s = stream(seed, "proj")
    x = s.uniform((12,), 0.0, 1.0).astype(np.float32)
    d = s.uniform((12,), -2.0, 2.0).astype(np.float32)
    b = pm.Budget(norm, eps)
    once = pm.project(d, x, b)
    assert np.array_equal(pm.project(once, x, b), once)
    assert pm.is_feasible(once, x, b)


def test_is_feasible_rejects_violations():
    x = np.full(4, 0.5, np.float32)
    b = pm.Budget("linf", 0.1)
    assert not pm.is_feasible(np.array([0.2, 0, 0, 0], np.float32), x, b)
    assert not pm.is_feasible(np.array([0.05, 0.6, 0, 0], np.float32), x, b)  # leaves [0,1]
    assert pm.is_feasible(np.full(4, 0.1, np.float32), x, b)
    b2 = pm.Budget("l2", 0.1)
    assert not pm.is_feasible(np.full(4, 0.09, np.float32), x, b2)


def _cfg(norm="linf", eps=0.12, steps=4, **kw):
    return pm.PMConfig(budget=pm.Budget(norm, eps), steps=steps, **kw)


def test_pm_run_matches_plain_pgd_bitwise():
    m = util.tiny_model(2, 2)
    x = util.rand_image(2)
    goal = util.targeted(1)
    cfg = _cfg(steps=6)
    d, x_star = pm.pm_run(x, goal, [m], [1.0], np.zeros_like(x), cfg)
    ref = util.plain_pgd(m, x, goal, "linf", 0.12, 6, cfg.resolved_step(), np.zeros_like(x))
    assert np.array_equal(d, ref)
    assert np.array_equal(x_star, x + ref)


def test_pm_run_deterministic_bitwise():
    models = [util.tiny_model(i, i) for i in range(3)]
    x = util.rand_image(4)
    w = [0.5, 0.3, 0.2]
    a, _ = pm.pm_run(x, util.targeted(0), models, w, np.zeros_like(x), _cfg())
    b, _ = pm.pm_run(x, util.targeted(0), models, w, np.zeros_like(x), _cfg())
    assert np.array_equal(a, b)


def test_pm_run_projects_warm_start_on_entry():
    m = util.tiny_model(3, 1)
    x = util.rand_image(3)
    wild = np.full_like(x, 5.0)  # far outside the budget
    checks = []
    pm.pm_run(x, util.targeted(2), [m], [1.0], wild, _cfg(),
              on_step=lambda t, d: checks.append(pm.is_feasible(d, x, _cfg().budget)))
    assert all(checks) and len(checks) == 4


def test_pm_run_tiny_step_is_projection_only():
    # entries stay >= 0.05 so a 1e-12 step is below half an ulp everywhere
    m = util.tiny_model(6, 0)
    x = util.rand_image(6)
    init = util.rand_image(7) * np.float32(0.1) + np.float32(0.05)
    cfg = _cfg(step_size=1e-12, steps=3)
    d, _ = pm.pm_run(x, util.targeted(0), [m], [1.0], init, cfg)
    assert np.array_equal(d, pm.project(init, x, cfg.budget))


def test_pm_run_on_step_sequence():
    m = util.tiny_model(8, 3)
    x = util.rand_image(8)
    seen = []
    pm.pm_run(x, util.untargeted(1), [m], [1.0], np.zeros_like(x), _cfg(steps=5),
              on_step=lambda t, d: seen.append(t))
    assert seen == [0, 1, 2, 3, 4]


def _run_recorded(monkeypatch, model, x, goal, init, cfg):
    """pm_run on one model: (delta, gradient calls, bytes of each step's delta)."""
    grads = util.record_calls(monkeypatch, pm, "ensemble_input_gradient")
    seen = []
    d, x_star = pm.pm_run(x, goal, [model], [1.0], init, cfg,
                          on_step=lambda t, dd: seen.append((t, dd.tobytes())))
    assert [t for t, _ in seen] == list(range(cfg.steps))
    assert x_star.tobytes() == (x + d).tobytes()
    return d, len(grads), [b for _, b in seen]


def test_pm_run_stops_taking_gradients_at_a_fixed_point(monkeypatch):
    # the warm start already fools the model, so the cw_margin gradient is
    # zero and the first step gives delta back
    m = util.tiny_model(20, 2)
    x = util.rand_image(20)
    cfg = _cfg(steps=6)
    init = (util.rand_image(21) - np.float32(0.5)) * np.float32(0.1)
    goal = util.targeted(int(np.argmax(nn.forward(m, x + pm.project(init, x, cfg.budget)))))
    d, grads, seen = _run_recorded(monkeypatch, m, x, goal, init, cfg)
    ref = util.plain_pgd(m, x, goal, "linf", 0.12, 6, cfg.resolved_step(), init)
    assert d.tobytes() == ref.tobytes()
    assert grads == 1 and set(seen) == {d.tobytes()}


def test_pm_run_a_saturated_step_is_a_fixed_point_too(monkeypatch):
    # a two-class linear model under a margin it never reaches has one
    # nonzero input gradient everywhere; a step of twice eps saturates
    # delta at once, and the second step gives it back
    layers = [nn.Flatten(), nn.Dense(36, 2)]
    w = stream(22, "w").uniform((2, 36), -1.0, 1.0)
    model = nn.Model(layers, util.theta_from_groups(layers, [(), (w, np.zeros(2, np.float32))]),
                     util.TINY_SHAPE, 2, "linear")
    x = util.rand_image(22)
    cfg = _cfg(steps=5, step_size=0.24, loss=LossKind(kappa=1e3))
    goal = util.targeted(0)
    d, grads, seen = _run_recorded(monkeypatch, model, x, goal, np.zeros_like(x), cfg)
    ref = util.plain_pgd(model, x, goal, "linf", 0.12, 5, 0.24, np.zeros_like(x), kappa=1e3)
    assert d.tobytes() == ref.tobytes()
    assert grads == 2 and len(set(seen)) == 1 and d.any()


def test_pm_run_stops_taking_gradients_in_a_two_cycle(monkeypatch):
    # a large linf step on a linear model's cross-entropy overshoots back
    # and forth: the third step gives back the first step's delta
    m = util.tiny_model(0, 0)
    x = util.rand_image(1)
    cfg = _cfg(steps=10, step_size=0.24, loss=LossKind("cross_entropy"))
    goal = util.targeted(1)
    d, grads, seen = _run_recorded(monkeypatch, m, x, goal, np.zeros_like(x), cfg)
    ref = util.plain_pgd(m, x, goal, "linf", 0.12, 10, 0.24, np.zeros_like(x),
                         kind="cross_entropy")
    assert d.tobytes() == ref.tobytes()
    assert grads == 3
    assert seen[0] != seen[1] and seen == [seen[0], seen[1]] * 5


def test_pm_run_takes_every_gradient_in_a_longer_cycle(monkeypatch):
    # under l2 this run settles into a cycle of period 3, which the
    # two-step lookback does not see
    m = util.tiny_model(19, 0)
    x = util.rand_image(20)
    cfg = _cfg("l2", 0.7, steps=12, step_size=1.4)
    goal = util.targeted(2)
    d, grads, seen = _run_recorded(monkeypatch, m, x, goal, np.zeros_like(x), cfg)
    ref = util.plain_pgd(m, x, goal, "l2", 0.7, 12, 1.4, np.zeros_like(x))
    assert d.tobytes() == ref.tobytes()
    assert grads == 12
    assert seen[-6:] == seen[-3:] * 2 and len(set(seen[-3:])) == 3


def test_pm_run_takes_every_gradient_while_delta_moves(monkeypatch):
    m = util.tiny_model(8, 3)
    x = util.rand_image(8)
    cfg = _cfg(steps=5, step_size=0.005)
    goal = util.targeted(int(np.argmin(nn.forward(m, x))))
    d, grads, seen = _run_recorded(monkeypatch, m, x, goal, np.zeros_like(x), cfg)
    ref = util.plain_pgd(m, x, goal, "linf", 0.12, 5, 0.005, np.zeros_like(x))
    assert d.tobytes() == ref.tobytes()
    assert grads == 5 and len(set(seen)) == 5


def test_pm_run_weight_arity_error():
    # the same error ensemble_input_gradient and ensemble_loss raise
    m = util.tiny_model(0, 0)
    x = util.rand_image(0)
    with pytest.raises(EnsembleArityError):
        pm.pm_run(x, util.targeted(0), [m], [0.5, 0.5], np.zeros_like(x), _cfg())


@pytest.mark.parametrize("w", [[np.nan, 0.5], [0.5, np.inf], [-np.inf, 0.0]])
def test_pm_run_rejects_non_finite_weights_before_any_forward(w, monkeypatch):
    models = [util.tiny_model(i, i) for i in range(2)]
    x = util.rand_image(2)
    forwards = []
    real = nn._forward_saved
    monkeypatch.setattr(nn, "_forward_saved", lambda m, a: forwards.append(m) or real(m, a))
    cfg = pm.PMConfig(pm.Budget("linf", 0.1), steps=2)
    with pytest.raises(EnsembleArityError):
        pm.pm_run(x, util.targeted(1), models, w, np.zeros_like(x), cfg)
    assert forwards == []


@pytest.mark.parametrize("fusion", losses.FUSION_KINDS)
def test_all_zero_weights_rejected_before_any_forward(fusion, monkeypatch):
    models = [util.tiny_model(i, i) for i in range(2)]
    x = util.rand_image(2)
    forwards = []
    real = nn._forward_saved
    monkeypatch.setattr(nn, "_forward_saved", lambda m, a: forwards.append(m) or real(m, a))
    cfg = pm.PMConfig(pm.Budget("linf", 0.1), steps=1, fusion=fusion)
    with pytest.raises(EnsembleArityError):
        pm.pm_run(x, util.targeted(1), models, [0.0, 0.0], np.zeros_like(x), cfg)
    with pytest.raises(EnsembleArityError):
        losses.ensemble_input_gradient(models, x, np.zeros_like(x), [0.0, -0.0], fusion,
                                       LossKind(), util.targeted(1))
    assert forwards == []


def test_pm_run_rejects_non_finite_input():
    m = util.tiny_model(1, 0)
    x = util.rand_image(1)
    nan_x = x.copy()
    nan_x.flat[3] = np.nan
    with pytest.raises(ValueError, match="image"):
        pm.pm_run(nan_x, util.targeted(0), [m], [1.0], np.zeros_like(x), _cfg())
    inf_init = np.zeros_like(x)
    inf_init.flat[0] = np.inf
    with pytest.raises(ValueError, match="delta_init"):
        pm.pm_run(x, util.targeted(0), [m], [1.0], inf_init, _cfg())


@pytest.mark.parametrize("norm,eps", [("linf", 0.1), ("l2", 0.6)])
def test_pm_run_feasible_after_every_step(norm, eps):
    models = [util.tiny_model(i + 9, i) for i in range(2)]
    x = util.rand_image(11)
    cfg = _cfg(norm, eps, steps=8)
    flags = []
    pm.pm_run(x, util.targeted(3), models, [0.4, 0.6],
              (util.rand_image(12) - np.float32(0.5)) * np.float32(2.0), cfg,
              on_step=lambda t, d: flags.append(pm.is_feasible(d, x, cfg.budget)))
    assert len(flags) == 8 and all(flags)


def test_pm_run_l2_matches_plain_pgd_bitwise():
    m = util.tiny_model(14, 2)
    x = util.rand_image(14)
    goal = util.untargeted(2)
    cfg = _cfg("l2", 0.7, steps=5, loss=LossKind("cross_entropy"))
    d, _ = pm.pm_run(x, goal, [m], [1.0], np.zeros_like(x), cfg)
    ref = util.plain_pgd(m, x, goal, "l2", 0.7, 5, cfg.resolved_step(),
                         np.zeros_like(x), kind="cross_entropy")
    assert np.array_equal(d, ref)

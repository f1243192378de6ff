import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import util
from ensattack import losses, nn
from ensattack.errors import DegenerateClassifierError, EnsembleArityError
from ensattack.losses import AttackGoal, LossKind

finite_logits = st.lists(st.floats(-20, 20, width=32), min_size=2, max_size=8)
CE = LossKind("cross_entropy")


def test_goal_and_kind_validation():
    with pytest.raises(ValueError):
        AttackGoal("sideways", 0)
    with pytest.raises(ValueError):
        AttackGoal("targeted", -1)
    with pytest.raises(ValueError):
        LossKind("hinge")
    with pytest.raises(ValueError):
        LossKind(kappa=-0.1)


def test_cw_margin_examples():
    def margin(z, goal, kappa):
        return losses.single_loss(np.array(z), goal, LossKind(kappa=kappa))[0]

    assert margin([2.0, 0.0], util.targeted(0), 5.0) == -2.0
    assert margin([0.0, 3.0], util.targeted(0), 0.0) == 3.0
    assert margin([1.0, 1.0], util.targeted(0), 0.0) == 0.0
    # untargeted: margin of the true class over the best other
    assert margin([2.0, 0.0], util.untargeted(0), 5.0) == 2.0
    # a success clipped at kappa = 0 is -0.0, which query logs write as repr
    success = margin([0.0, 3.0], util.untargeted(0), 0.0)
    assert success == 0.0 and math.copysign(1.0, success) == -1.0


def test_cw_margin_clips_at_minus_kappa():
    z = np.array([9.0, 0.0])
    assert losses.single_loss(z, util.targeted(0), LossKind(kappa=2.0))[0] == -2.0


def test_degenerate_classifier_errors():
    with pytest.raises(DegenerateClassifierError):
        losses.single_loss(np.array([1.0]), util.targeted(0), LossKind())
    with pytest.raises(DegenerateClassifierError):
        losses.single_loss(np.array([1.0, 2.0]), util.targeted(5), CE)


@given(finite_logits, st.integers(0, 7), st.floats(0.01, 3.0))
def test_cw_sign_iff_strict_success(grid, label, kappa):
    z = np.array(grid, np.float32)
    label %= z.size
    for goal in (util.targeted(label), util.untargeted(label)):
        val = losses.single_loss(z, goal, LossKind(kappa=kappa))[0]
        strict = (int(np.argmax(z)) == label and np.sum(z == z.max()) == 1) \
            if goal.mode == "targeted" else bool(np.any(z > z[label]))
        assert (val < 0) == strict


def test_cross_entropy_examples():
    assert abs(losses.single_loss(np.array([0.0, 0.0]), util.targeted(0), CE)[0]
               - np.log(2.0)) < 1e-7
    nearly_sure = losses.single_loss(np.array([30.0, 0.0]), util.targeted(0), CE)[0]
    assert 0 <= nearly_sure < 1e-6


@given(finite_logits, st.integers(0, 7))
def test_cross_entropy_matches_float64_reference(grid, label):
    z = np.array(grid, np.float32)
    label %= z.size
    z64 = z.astype(np.float64)
    ref = -(z64[label] - np.log(np.sum(np.exp(z64))))
    got = losses.single_loss(z, util.targeted(label), CE)[0]
    assert abs(got - ref) < 1e-6 * max(1.0, abs(ref))
    assert losses.single_loss(z, util.untargeted(label), CE)[0] == \
        pytest.approx(-got, abs=1e-12)


@given(finite_logits, st.integers(0, 7))
def test_untargeted_is_negated_targeted_margin(grid, label):
    # the untargeted margin with true label y is exactly minus the targeted
    # margin that treats y as the target, before kappa clipping
    z = np.array(grid, np.float32)
    label %= z.size
    big = 1e9
    t = losses.single_loss(z, util.targeted(label), LossKind(kappa=big))[0]
    u = losses.single_loss(z, util.untargeted(label), LossKind(kappa=big))[0]
    assert u == pytest.approx(-t, abs=1e-6)


@given(finite_logits, st.integers(0, 7), st.sampled_from(["cw_margin", "cross_entropy"]))
def test_loss_grad_matches_fd_on_logits(grid, label, kind):
    z = np.array(grid, np.float32)
    label %= z.size
    goal = util.targeted(label)
    others = np.delete(z, label)
    # stay away from the piecewise-linear kinks of the margin loss
    assume(abs(float(others.max()) - float(z[label])) > 0.05)
    if others.size > 1:
        top2 = np.sort(others)[-2:]
        assume(float(top2[1] - top2[0]) > 0.05)
    lk = LossKind(kind)
    g = losses.single_loss(z, goal, lk)[1].astype(np.float64)
    h = 1e-3
    fd = np.zeros(z.size)
    for i in range(z.size):
        zp, zm = z.astype(np.float64).copy(), z.astype(np.float64).copy()
        zp[i] += h
        zm[i] -= h
        fd[i] = (losses.single_loss(zp.astype(np.float32), goal, lk)[0]
                 - losses.single_loss(zm.astype(np.float32), goal, lk)[0]) / (2 * h)
    assert np.max(np.abs(g - fd)) < 5e-3


def test_singleton_ensemble_equals_single_loss():
    z = np.array([0.3, -1.2, 2.0, 0.1], np.float32)
    goal = util.targeted(1)
    lk = LossKind()
    single = losses.single_loss(z, goal, lk)[0]
    assert losses.ensemble_loss([z], [1.0], "weighted_loss", lk, goal) == pytest.approx(single)
    assert losses.ensemble_loss([z], [1.0], "weighted_logits", lk, goal) == pytest.approx(single)
    # probability fusion always uses the log-probability form
    wp = losses.ensemble_loss([z], [1.0], "weighted_probabilities", lk, goal)
    assert wp == pytest.approx(losses.single_loss(z, goal, CE)[0], abs=1e-6)


def test_weighted_logits_independent_of_w_for_identical_members():
    z = np.array([0.5, -0.2, 1.0], np.float32)
    goal = util.targeted(2)
    vals = [losses.ensemble_loss([z, z, z], w, "weighted_logits", LossKind(), goal)
            for w in ([1 / 3] * 3, [0.7, 0.2, 0.1], [0.0, 0.0, 1.0])]
    assert max(vals) - min(vals) < 1e-6


def test_weighted_loss_hand_computed():
    zs = [np.array([1.0, 0.0], np.float32), np.array([0.0, 2.0], np.float32),
          np.array([3.0, 3.0], np.float32)]
    goal = util.targeted(0)
    want = 0.2 * (-1.0) + 0.3 * 2.0 + 0.5 * 0.0
    got = losses.ensemble_loss(zs, [0.2, 0.3, 0.5], "weighted_loss", LossKind(kappa=9.0), goal)
    assert got == pytest.approx(want)


@given(st.integers(0, 10**6))
@settings(max_examples=30)
def test_weighted_loss_affine_in_w(seed):
    from ensattack.prng import stream

    s = stream(seed, "affine")
    zs = [s.uniform((4,), -3.0, 3.0).astype(np.float32) for _ in range(3)]
    goal = util.targeted(int(s.integer(4)))
    lk = LossKind(kappa=10.0)
    vertex = [losses.ensemble_loss(zs, np.eye(3)[i], "weighted_loss", lk, goal)
              for i in range(3)]
    centroid = losses.ensemble_loss(zs, np.full(3, 1 / 3), "weighted_loss", lk, goal)
    assert centroid == pytest.approx(float(np.mean(vertex)), abs=1e-6)


def test_arity_and_fusion_validation():
    z = np.array([0.0, 1.0], np.float32)
    with pytest.raises(EnsembleArityError):
        losses.ensemble_loss([z, z], [1.0], "weighted_loss", LossKind(), util.targeted(0))
    with pytest.raises(ValueError):
        losses.ensemble_loss([z], [1.0], "mean", LossKind(), util.targeted(0))
    models = [util.tiny_model(0, 0)]
    x = util.rand_image(0)
    with pytest.raises(EnsembleArityError):
        losses.ensemble_input_gradient(models, x, np.zeros_like(x), [0.5, 0.5],
                                       "weighted_loss", LossKind(), util.targeted(0))
    with pytest.raises(ValueError):
        losses.ensemble_input_gradient(models, x, np.zeros_like(x), [1.0],
                                       "sum", LossKind(), util.targeted(0))


@pytest.mark.parametrize("fusion", losses.FUSION_KINDS)
def test_ensemble_loss_rejects_the_weights_the_gradient_rejects(fusion):
    zs = [np.array([0.0, 1.0], np.float32), np.array([2.0, -1.0], np.float32)]
    for w in ([0.0, 0.0], [0.0, -0.0], [np.nan, 0.5], [1.0, np.inf], [[0.5, 0.5]]):
        with pytest.raises(EnsembleArityError):
            losses.ensemble_loss(zs, w, fusion, LossKind(), util.targeted(0))


def test_probability_fusion_floor_keeps_loss_finite():
    z_sure_wrong = np.array([-80.0, 80.0], np.float32)
    val = losses.ensemble_loss([z_sure_wrong], [1.0], "weighted_probabilities",
                               LossKind(), util.targeted(0))
    assert np.isfinite(val) and val == pytest.approx(-np.log(losses._P_FLOOR))
    models = [util.const_model((1, 2, 2), 2, hot=1)]
    x = np.full((1, 2, 2), 0.5, np.float32)
    g = losses.ensemble_input_gradient(models, x, np.zeros_like(x), [1.0],
                                       "weighted_probabilities", LossKind(), util.targeted(0))
    assert np.all(np.isfinite(g))


@pytest.mark.parametrize("fusion", losses.FUSION_KINDS)
def test_vertex_weight_equals_single_model_gradient(fusion):
    models = [util.tiny_model(i, i) for i in range(3)]
    x = util.rand_image(9)
    delta = np.zeros_like(x)
    goal = util.targeted(2)
    g_vertex = losses.ensemble_input_gradient(models, x, delta, [1.0, 0.0, 0.0],
                                              fusion, LossKind(), goal)
    z = nn.forward(models[0], x)
    if fusion == "weighted_probabilities":
        # probability fusion of one member is that member's cross-entropy
        g_single = nn.input_gradient(models[0], x, losses.single_loss(z, goal, CE)[1])
        assert np.allclose(g_vertex, g_single)
    else:
        g_single = nn.input_gradient(models[0], x, losses.single_loss(z, goal, LossKind())[1])
        assert np.array_equal(g_vertex, g_single)


def test_ensemble_gradient_linear_in_w_for_weighted_loss():
    models = [util.tiny_model(i + 5, i) for i in range(2)]
    x = util.rand_image(31)
    delta = np.zeros_like(x)
    goal = util.targeted(1)
    lk = LossKind()

    def grad(w):
        return losses.ensemble_input_gradient(models, x, delta, w, "weighted_loss",
                                              lk, goal).astype(np.float64)

    g1, g2 = grad([1.0, 0.0]), grad([0.0, 1.0])
    alpha = 0.3
    mix = grad([alpha, 1 - alpha])
    assert np.max(np.abs(mix - (alpha * g1 + (1 - alpha) * g2))) < 1e-6


@pytest.mark.parametrize("fusion", losses.FUSION_KINDS)
def test_ensemble_gradient_matches_fd(fusion):
    models = [util.tiny_model(i + 40, (i + 1) % 4) for i in range(2)]
    x = util.rand_image(77)
    delta = (util.rand_image(78) - np.float32(0.5)) * np.float32(0.05)
    w = np.array([0.6, 0.4])
    goal = util.targeted(3)
    lk = LossKind("cross_entropy")  # smooth in z, safe for fd

    def f(d):
        zs = [nn.forward(m, x + np.asarray(d, np.float32)) for m in models]
        return losses.ensemble_loss(zs, w, fusion, lk, goal)

    g = losses.ensemble_input_gradient(models, x, delta, w, fusion, lk, goal).astype(np.float64)
    fd = util.fd_gradient(lambda d: f(d - x), x + delta, 1e-3).astype(np.float64)
    rel = np.linalg.norm(g - fd) / max(np.linalg.norm(g), 1e-12)
    assert rel < 1e-3

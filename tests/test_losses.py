import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import util
from ensattack import losses, nn, pm, zoo
from ensattack.errors import DegenerateClassifierError, EnsembleArityError, ShapeError
from ensattack.losses import AttackGoal, LossKind
from ensattack.prng import stream

finite_logits = st.lists(st.floats(-20, 20, width=32), min_size=2, max_size=8)
CE = LossKind("cross_entropy")


def test_goal_and_kind_validation():
    with pytest.raises(ValueError):
        AttackGoal("sideways", 0)
    with pytest.raises(ValueError):
        AttackGoal("targeted", -1)
    with pytest.raises(ValueError):
        LossKind("hinge")
    assert AttackGoal("targeted", np.int64(3)).label == 3
    for kappa in (-0.1, math.inf, math.nan, True, 10**400, "1"):
        with pytest.raises(ValueError):
            LossKind(kappa=kappa)


@pytest.mark.parametrize("label", [1.5, True, "1", None])
def test_a_goal_label_that_is_not_an_integer_is_refused(label):
    # 1.5 used to fail later with a bare IndexError, True ran as class 1
    with pytest.raises(ValueError, match="label must be an integer >= 0"):
        AttackGoal("targeted", label)


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
    # the member logits are stacked, so every member must have C classes
    for fusion in losses.FUSION_KINDS:
        with pytest.raises(ShapeError):
            losses.ensemble_loss([z, np.zeros(3, np.float32)], [0.5, 0.5], fusion,
                                 LossKind(), util.targeted(0))
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
        g_single = util.input_gradient(models[0], x, losses.single_loss(z, goal, CE)[1])
        assert np.allclose(g_vertex, g_single)
    else:
        g_single = util.input_gradient(models[0], x, losses.single_loss(z, goal, LossKind())[1])
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


# ---------------------------------------------------------------------------
# the stacked fusion and the skip of fooled members, byte for byte against
# the per-member references in util


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


def _fuzz_case(s, n):
    """A fusion, a loss kind with kappa 0 or 2, a goal mode and n ensemble
    weights: random, a vertex, partly zero, partly negative or uniform."""
    fusion = losses.FUSION_KINDS[s.integer(3)]
    loss = LossKind(("cw_margin", "cross_entropy")[s.integer(2)], (0.0, 2.0)[s.integer(2)])
    mode = ("targeted", "untargeted")[s.integer(2)]
    kind = s.integer(5)
    if kind == 0:
        w = s.uniform((n,))
    elif kind == 1:
        w = np.eye(n)[s.integer(n)]
    elif kind == 2:
        w = s.uniform((n,)) * (s.uniform((n,)) < 0.5)
        w[s.integer(n)] = 0.5
    elif kind == 3:
        w = s.uniform((n,), -1.0, 1.0)
    else:
        w = np.full(n, 1.0 / n)
    return fusion, loss, mode, losses.check_weights(n, w.astype(np.float64))


def _fuzz_logits(s, n, c, goal):
    """(n, c) logits with forced-fooled rows, argmax ties and, in some
    draws, -inf and NaN entries."""
    z = s.uniform((n, c), -6.0, 6.0)
    if s.integer(3) == 0:
        z = np.round(z)  # ties, at the argmax too
    for r in range(n):
        if s.integer(3) == 0:  # fooled: the goal's argmax condition holds
            others = np.delete(z[r], goal.label)
            if goal.mode == "targeted":
                z[r, goal.label] = others.max() + s.integer(3)
            else:
                z[r, goal.label] = others.min() - s.integer(3)
    special = s.integer(4)
    if special:
        cells = s.uniform((n, c)) < 0.15
        z[cells] = (-np.inf, np.nan, np.inf)[special - 1]
    return z.astype(np.float32)


@np.errstate(over="ignore", invalid="ignore")  # inf and NaN logits are drawn on purpose
def test_stacked_loss_matches_the_per_member_reference_bitwise():
    for k in range(2000):
        s = stream(5, f"stacked/{k}")
        n, c = 1 + s.integer(6), 2 + s.integer(9)
        fusion, loss, mode, w = _fuzz_case(s, n)
        goal = AttackGoal(mode, s.integer(c))
        z = _fuzz_logits(s, n, c, goal)
        values, g = losses.stacked_loss(z, goal, loss)
        assert g.dtype == np.float32 and g.shape == (n, c)
        for r in range(n):
            ref_value, ref_g = util.ref_single_loss(z[r], goal, loss)
            assert _bits(values[r]) == _bits(ref_value)
            assert g[r].tobytes() == ref_g.tobytes()
            one_value, one_g = losses.single_loss(z[r], goal, loss)
            assert _bits(one_value) == _bits(ref_value)
            assert one_g.tobytes() == ref_g.tobytes()
        value, upstreams = losses._fuse(list(z), w, fusion, loss, goal)
        ref_value, ref_upstreams = util.ref_fuse(list(z), w, fusion, loss, goal)
        assert _bits(value) == _bits(ref_value)
        assert upstreams.dtype == np.float32 and upstreams.shape == (n, c)
        assert upstreams.tobytes() == np.array(ref_upstreams).tobytes()


def _overflowing_model(seed):
    """Finite parameters whose logits overflow to +-inf (and NaN margins)."""
    d = int(np.prod(util.TINY_SHAPE))
    s = stream(seed, "overflow")
    weight = (s.uniform((util.TINY_CLASSES, d), -1.0, 1.0) * np.float32(3e38)).astype(np.float32)
    layers = [nn.Flatten(), nn.Dense(d, util.TINY_CLASSES)]
    theta = util.theta_from_groups(layers, [(), (weight, np.zeros(util.TINY_CLASSES, np.float32))])
    return nn.Model(layers, theta, util.TINY_SHAPE, util.TINY_CLASSES, f"overflow-{seed}")


def _member(s, k):
    kind = s.integer(7)
    if kind < 4:
        return util.tiny_model(100 * k + kind, kind)
    if kind == 4:
        return util.const_model(hot=s.integer(util.TINY_CLASSES))
    if kind == 5:
        # a relu on the input turns a negative gradient at a zero pixel
        # into -0.0, so a sum can be -0.0 only where one of these is live
        d = int(np.prod(util.TINY_SHAPE))
        layers = [nn.Relu(), nn.Flatten(), nn.Dense(d, util.TINY_CLASSES)]
        return zoo.build_model(layers, util.TINY_SHAPE, util.TINY_CLASSES, k, f"relu-{k}")
    return _overflowing_model(k)


@np.errstate(over="ignore", invalid="ignore")  # overflowing members are drawn on purpose
def test_ensemble_input_gradient_matches_the_every_member_reference_bitwise():
    skipped = 0
    for k in range(500):
        s = stream(6, f"grad/{k}")
        n = 1 + s.integer(6)
        models = [_member(s, k) for _ in range(n)]
        fusion, loss, mode, w = _fuzz_case(s, n)
        goal = AttackGoal(mode, s.integer(util.TINY_CLASSES))
        x = util.rand_image(k)
        delta = s.uniform(x.shape, -0.1, 0.1).astype(np.float32)
        dark = s.uniform(x.shape) < 0.3
        delta[dark] = -x[dark]  # pixels at 0, as the PM's box clamp leaves them
        got = losses.ensemble_input_gradient(models, x, delta, w, fusion, loss, goal)
        ref = util.ref_ensemble_input_gradient(models, x, delta, w, fusion, loss, goal)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
        outputs = [nn.forward(m, x + delta) for m in models]
        _, upstreams = losses._fuse(outputs, w, fusion, loss, goal)
        skipped += int(not upstreams.any(axis=1).all())
    assert skipped > 100  # the fuzz does exercise the skip


def _count_backwards(monkeypatch):
    calls = []
    real = nn.backward

    def spy(model, acts, upstream, *args, **kw):
        calls.append(model.model_id)
        return real(model, acts, upstream, *args, **kw)

    monkeypatch.setattr(nn, "backward", spy)
    return calls


@pytest.mark.parametrize("fooled", range(5))
def test_a_step_back_propagates_only_the_members_not_yet_fooled(fooled, monkeypatch):
    label = 2
    # a constant model that predicts the target is fooled; one that
    # predicts another class is not
    others = [c for c in range(util.TINY_CLASSES) if c != label]
    models = [util.const_model(hot=label if i < fooled else others[i % 3]) for i in range(4)]
    models = models[1::2] + models[::2]
    x = util.rand_image(3)
    delta = np.zeros_like(x)
    w = np.full(4, 0.25)
    goal = util.targeted(label)
    calls = _count_backwards(monkeypatch)
    g = losses.ensemble_input_gradient(models, x, delta, w, "weighted_loss", LossKind(), goal)
    assert len(calls) == 4 - fooled
    assert g.shape == x.shape and g.dtype == np.float32
    assert not np.signbit(g[g == 0]).any()
    # fooled by less than kappa: every member still has an upstream
    calls.clear()
    losses.ensemble_input_gradient(models, x, delta, w, "weighted_loss", LossKind(kappa=2.0), goal)
    assert len(calls) == 4


def test_a_member_without_parameters_is_never_skipped(monkeypatch):
    # relu and flatten pass a -0.0 upstream through, so its zero is not +0.0
    bare = nn.Model([nn.Relu()], np.zeros(0, np.float32), (4,), 4, "bare")
    x = np.array([0.5, 0.1, 0.2, 0.3], np.float32)
    calls = _count_backwards(monkeypatch)
    g = losses.ensemble_input_gradient([bare], x, np.zeros_like(x), [-1.0], "weighted_loss",
                                       LossKind(), util.targeted(0))
    assert calls == ["bare"]
    assert np.signbit(g).all()


def test_a_surrogate_must_take_the_image_shape(monkeypatch):
    # a flatten-first model of the right size, and one of the wrong size:
    # neither may run on a (1, 6, 6) image
    x = util.rand_image(5)
    forwards = []
    real = nn._forward_saved
    monkeypatch.setattr(nn, "_forward_saved", lambda m, a: forwards.append(m) or real(m, a))
    for shape in ((1, 36, 1), (1, 5, 5)):
        d = int(np.prod(shape))
        odd = zoo.build_model([nn.Flatten(), nn.Dense(d, util.TINY_CLASSES)], shape,
                              util.TINY_CLASSES, 0, "odd")
        models = [util.tiny_model(5), odd]
        with pytest.raises(ShapeError, match="odd"):
            losses.ensemble_input_gradient(models, x, np.zeros_like(x), [0.5, 0.5],
                                           "weighted_loss", LossKind(), util.targeted(0))
        with pytest.raises(ShapeError, match="odd"):
            pm.pm_run(x, util.targeted(0), models, [0.5, 0.5], np.zeros_like(x),
                      pm.PMConfig(pm.Budget("linf", 0.1), steps=2))
    assert forwards == []


@pytest.mark.parametrize("mode", ["targeted", "untargeted"])
def test_probability_fusion_matches_the_reference_at_huge_weights(mode):
    # a weight near 1e50 makes v_y = -1/p_y underflow to -0.0 under a
    # targeted goal, and one beyond the float32 range makes its member's
    # upstream NaN; the other members' upstreams must still match bit for bit
    zs = [np.array([1.0, 2.0, 3.0], np.float32), np.array([0.0, -1.0, 5.0], np.float32)]
    goal = AttackGoal(mode, 0)
    for w in ([1e50, 1.0], [1e50, 0.0], [1.0, 1e60], [1e46, 1.0], [-1e46, 1.0]):
        w = np.array(w)
        with np.errstate(over="ignore", invalid="ignore"):
            value, upstreams = losses._fuse(zs, w, "weighted_probabilities", LossKind(), goal)
            ref_value, ref_upstreams = util.ref_fuse(zs, w, "weighted_probabilities",
                                                     LossKind(), goal)
        assert _bits(value) == _bits(ref_value)
        assert upstreams.tobytes() == np.stack(ref_upstreams).tobytes()

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import util
from ensattack import kernels, nn, zoo
from ensattack.errors import LayerSpecError, ShapeError


def test_forward_identity_dense():
    m = nn.Model([nn.Dense(2, 2)], [(np.eye(2, dtype=np.float32), np.zeros(2, np.float32))],
                 (2,), 2)
    assert np.array_equal(nn.forward(m, np.array([1.0, 2.0], np.float32)), [1.0, 2.0])


def test_forward_zero_weights():
    m = util.const_model(hot=0)
    z = nn.forward(m, util.rand_image(0))
    assert z[0] == 1.0 and np.all(z[1:] == 0.0)


@pytest.mark.parametrize("arch", [0, 1, 2, 3])
def test_forward_matches_straight_line_oracle(arch):
    m = util.tiny_model(arch * 11 + 3, arch)
    x = util.rand_image(arch)
    z = nn.forward(m, x)
    ref = util.naive_forward(m, x)
    assert np.max(np.abs(z.astype(np.float64) - ref)) < 1e-5 * max(1.0, np.abs(ref).max())


def test_forward_repeat_call_bitwise_stable():
    m = util.tiny_model(5, 2)
    x = util.rand_image(5)
    assert np.array_equal(nn.forward(m, x), nn.forward(m, x))


def test_forward_shape_error():
    m = util.tiny_model(0, 0)
    with pytest.raises(ShapeError):
        nn.forward(m, np.zeros((1, 5, 5), np.float32))


def test_softmax_examples():
    assert np.allclose(nn.softmax(np.array([0.0, 0.0])), [0.5, 0.5])
    big = nn.softmax(np.array([1000.0, 0.0], np.float32))
    assert np.isfinite(big).all() and big[0] > 0.999
    z = np.array([1.0, 2.0, 3.0])
    ref = np.exp(z.astype(np.float64)) / np.exp(z.astype(np.float64)).sum()
    assert np.max(np.abs(nn.softmax(z).astype(np.float64) - ref)) < 1e-7


@given(st.lists(st.integers(-512, 512), min_size=2, max_size=8), st.integers(-512, 512))
def test_softmax_sum_and_shift_invariance(grid, cgrid):
    # 1/64 grid values make the constant shift exact in float32, so the
    # max-subtracted computation is bitwise shift-invariant
    z = np.array(grid, np.float32) / np.float32(64.0)
    c = np.float32(cgrid) / np.float32(64.0)
    p = nn.softmax(z)
    assert abs(float(p.sum()) - 1.0) <= 1e-6
    assert np.all(p >= 0.0)
    assert np.array_equal(p, nn.softmax(z + c))


def test_input_gradient_linear_case():
    w = np.arange(6, dtype=np.float32).reshape(3, 2) / 7
    m = nn.Model([nn.Dense(2, 3)], [(w, np.zeros(3, np.float32))], (2,), 3)
    u = np.array([1.0, -2.0, 0.5], np.float32)
    assert np.array_equal(util.input_gradient(m, np.array([0.3, 0.4], np.float32), u), w.T @ u)


def test_relu_dead_unit_zero_gradient():
    # one hidden unit with strictly negative pre-activation: its path
    # contributes nothing
    w1 = np.array([[1.0], [-1.0]], np.float32)
    b1 = np.array([-5.0, 0.0], np.float32)  # unit 0 dead for x in [0,1]
    w2 = np.array([[1.0, 0.0], [1.0, 0.0]], np.float32)  # reads only unit 0
    m = nn.Model([nn.Dense(1, 2), nn.Relu(), nn.Dense(2, 2)],
                 [(w1, b1), (), (w2, np.zeros(2, np.float32))], (1,), 2)
    g = util.input_gradient(m, np.array([0.5], np.float32), np.ones(2, np.float32))
    assert np.array_equal(g, [0.0])


def test_relu_subgradient_at_zero_is_zero():
    m = nn.Model([nn.Dense(1, 2), nn.Relu(), nn.Dense(2, 2)],
                 [(np.zeros((2, 1), np.float32), np.zeros(2, np.float32)), (),
                  (np.ones((2, 2), np.float32), np.zeros(2, np.float32))], (1,), 2)
    g = util.input_gradient(m, np.array([0.7], np.float32), np.ones(2, np.float32))
    assert np.array_equal(g, [0.0])


def test_fd_gradient_quadratic_and_constant():
    g = util.fd_gradient(lambda v: float(np.sum(np.asarray(v, np.float64) ** 2)),
                         np.array([1.0, 2.0], np.float32), 1e-3)
    assert np.allclose(g, [2.0, 4.0], atol=1e-4)
    g0 = util.fd_gradient(lambda v: 3.0, np.array([1.0, 2.0], np.float32), 1e-3)
    assert np.array_equal(g0, [0.0, 0.0])
    with pytest.raises(ValueError):
        util.fd_gradient(lambda v: 0.0, np.zeros(2, np.float32), 0.0)


@pytest.mark.parametrize("arch", [1, 2])
def test_input_gradient_matches_fd(arch):
    m = util.tiny_model(17 + arch, arch)
    x = util.rand_image(40 + arch)
    u = util.rand_image(50 + arch, (util.TINY_CLASSES,), "upstream") - np.float32(0.5)
    u64 = u.astype(np.float64)
    g = util.input_gradient(m, x, u).astype(np.float64)
    fd = util.fd_gradient(lambda v: float(u64 @ util.naive_forward(m, v)), x, 1e-3)
    rel = np.linalg.norm(g - fd.astype(np.float64)) / max(np.linalg.norm(g), 1e-12)
    assert rel < 1e-3


def test_param_gradients_match_fd():
    m = util.tiny_model(23, 2)
    x = util.rand_image(23)
    u = np.ones((1, util.TINY_CLASSES), np.float32)
    acts = nn._forward_saved(m, x[None])
    _, grads = nn.backward(m, acts, u, want_param_grads=True)

    def loss_with(li, pi, idx, v):
        new = [list(g) for g in m.params]
        arr = np.array(new[li][pi])
        arr.reshape(-1)[idx] = v
        new[li][pi] = arr
        return float(np.sum(util.naive_forward(m.with_params(new), x)))

    rng = np.random.default_rng(0)
    for li, group in enumerate(m.params):
        for pi, arr in enumerate(group):
            for idx in rng.choice(arr.size, size=min(4, arr.size), replace=False):
                v0 = float(arr.reshape(-1)[idx])
                h = 1e-3
                fd = (loss_with(li, pi, idx, v0 + h) - loss_with(li, pi, idx, v0 - h)) / (2 * h)
                an = float(np.asarray(grads[li][pi]).reshape(-1)[idx])
                assert abs(an - fd) < 1e-2 * max(1.0, abs(fd))


def _bits(arrays):
    return [(a.shape, a.tobytes()) for a in arrays]


@pytest.mark.parametrize("layers", [
    [nn.Conv2d(1, 3, 3, 1), nn.Relu(), nn.Conv2d(3, 2, 2, 2), nn.Relu(), nn.Flatten(),
     nn.Dense(8, util.TINY_CLASSES)],
    [nn.Flatten(), nn.Dense(36, 10), nn.Relu(), nn.Dense(10, util.TINY_CLASSES)],
], ids=["conv-first", "dense-first"])
def test_trainer_pass_skips_the_input_gradient(layers, monkeypatch):
    # the pass that wants parameter gradients stops at the lowest layer with
    # parameters; every gradient it keeps is the full pass's, bit for bit,
    # summed over a batch of one from +0.0
    m = zoo.build_model(layers, util.TINY_SHAPE, util.TINY_CLASSES, 5)
    x = util.rand_image(5)
    u = util.rand_image(6, (util.TINY_CLASSES,), "upstream") - np.float32(0.5)
    ref_dx, ref_grads = util.ref_param_grads(m, nn._forward_saved(m, x), u)
    ref_grads = [tuple(np.float32(0.0) + a for a in group) for group in ref_grads]
    acts = nn._forward_saved(m, x[None])
    u = u[None]
    calls = util.record_calls(monkeypatch, kernels, "conv2d_grad_input_batch")
    single = util.record_calls(monkeypatch, kernels, "conv2d_grad_input")
    n_conv = sum(isinstance(layer, nn.Conv2d) for layer in layers)

    dx, grads = nn.backward(m, acts, u, want_param_grads=True)
    # only the upper conv's, whose input is (2, 4, 4)
    assert dx is None and [a[0].shape for a in calls] == [(1, 2, 2, 2)] * max(n_conv - 1, 0)
    assert [_bits(g) for g in grads] == [_bits(g) for g in ref_grads]

    del calls[:]
    dx, grads = nn.backward(m, acts, u)
    assert grads is None and len(calls) == n_conv
    assert _bits(dx) == _bits([ref_dx])
    assert single == []  # a batch never reaches the single-sample kernel


def test_trainer_step_makes_one_grad_input_call_fewer_per_minibatch(monkeypatch):
    layers = [nn.Conv2d(1, 3, 3, 1), nn.Relu(), nn.Conv2d(3, 2, 2, 2), nn.Relu(),
              nn.Flatten(), nn.Dense(8, 4)]
    m = zoo.build_model(layers, (1, 6, 6), 4, 3)
    ds = zoo.make_synthetic_dataset(num_classes=4, per_class=5, side=6, seed=3)
    calls = util.record_calls(monkeypatch, kernels, "conv2d_grad_input_batch")
    single = util.record_calls(monkeypatch, kernels, "conv2d_grad_input")
    zoo.train(m, ds, zoo.TrainConfig(epochs=1))
    # two convs: the full pass would call it twice per minibatch; the
    # trainer makes one call, the upper conv's, for the 20 samples' 16 + 4
    assert [a[0].shape for a in calls] == [(zoo.BATCH_SIZE, 2, 2, 2), (4, 2, 2, 2)]
    assert single == []


def test_backward_upstream_shape_error():
    m = util.tiny_model(3, 0)
    acts = nn._forward_saved(m, util.rand_image(3))
    with pytest.raises(ShapeError):
        nn.backward(m, acts, np.zeros(util.TINY_CLASSES + 1, np.float32))


@pytest.mark.parametrize("arch", [0, 2], ids=["dense", "conv"])
def test_param_gradients_are_taken_over_a_batch_only(arch):
    # the trainer, their one caller, asks for them per minibatch
    m = util.tiny_model(3, arch)
    x = util.rand_image(3)
    u = np.ones(util.TINY_CLASSES, np.float32)
    with pytest.raises(ShapeError):
        nn.backward(m, nn._forward_saved(m, x), u, want_param_grads=True)
    _, grads = nn.backward(m, nn._forward_saved(m, x[None]), u[None], want_param_grads=True)
    assert [tuple(a.shape for a in g) for g in grads] == [nn.param_shapes(lay)
                                                          for lay in m.layers]


def test_layer_spec_composition_errors():
    with pytest.raises(LayerSpecError):
        nn.compose_shapes([nn.Dense(5, 3)], (4,))
    with pytest.raises(LayerSpecError):
        nn.compose_shapes([nn.Conv2d(2, 3, 3)], (1, 6, 6))
    with pytest.raises(LayerSpecError):
        nn.compose_shapes([nn.Conv2d(1, 3, 9)], (1, 6, 6))
    with pytest.raises(LayerSpecError):  # must end in a logit vector
        nn.compose_shapes([nn.Conv2d(1, 3, 3)], (1, 6, 6))
    shapes = nn.compose_shapes([nn.Conv2d(1, 3, 3, 2), nn.Flatten()], (1, 6, 6))
    assert shapes == [(1, 6, 6), (3, 2, 2), (12,)]


def test_model_construction_errors():
    with pytest.raises(LayerSpecError):
        nn.Model([nn.Flatten(), nn.Dense(4, 1)], [(), (np.zeros((1, 4), np.float32),
                                                       np.zeros(1, np.float32))], (2, 2), 1)
    with pytest.raises(LayerSpecError):  # logits disagree with num_classes
        nn.Model([nn.Flatten(), nn.Dense(4, 3)], [(), (np.zeros((3, 4), np.float32),
                                                       np.zeros(3, np.float32))], (2, 2), 5)


def test_model_params_frozen_and_copied():
    src = np.zeros((util.TINY_CLASSES, 36), np.float32)
    m = nn.Model([nn.Flatten(), nn.Dense(36, util.TINY_CLASSES)],
                 [(), (src, np.zeros(util.TINY_CLASSES, np.float32))],
                 util.TINY_SHAPE, util.TINY_CLASSES)
    src[0, 0] = 99.0  # caller mutation must not leak in
    assert m.params[1][0][0, 0] == 0.0
    with pytest.raises(ValueError):
        m.params[1][0][0, 0] = 1.0
    m2 = m.with_params([list(g) for g in m.params])
    assert all(np.array_equal(a, b) for a, b in zip(m.param_arrays(), m2.param_arrays()))
    assert m.param_count() == 36 * util.TINY_CLASSES + util.TINY_CLASSES


def test_with_params_keeps_the_checked_stack(monkeypatch):
    # the trainer builds one work model per minibatch: the stack's shapes
    # are not composed again, but the parameters are still checked, copied
    # to float32 and frozen
    m = util.tiny_model(0, 2)
    monkeypatch.setattr(nn, "compose_shapes", lambda *a: pytest.fail("shapes composed again"))
    new = [tuple(a.astype(np.float64) + 1.0 for a in group) for group in m.params]
    m2 = m.with_params(new)
    for name in ("layers", "input_shape", "shapes", "num_classes", "model_id"):
        assert getattr(m2, name) is getattr(m, name), name
    assert all(a.dtype == np.float32 and not a.flags.writeable for a in m2.param_arrays())
    new[0][0][...] = 0.0  # caller mutation must not leak in
    assert all(np.array_equal(a, b + 1.0) for a, b in zip(m2.param_arrays(), m.param_arrays()))


def test_model_rejects_misshaped_params():
    layers = [nn.Flatten(), nn.Dense(36, util.TINY_CLASSES)]
    good = [(), (np.zeros((util.TINY_CLASSES, 36), np.float32),
                 np.zeros(util.TINY_CLASSES, np.float32))]
    m = nn.Model(layers, good, util.TINY_SHAPE, util.TINY_CLASSES)
    for bad in ([(), (np.zeros((36, util.TINY_CLASSES), np.float32), good[1][1])],
                [(), (good[1][0], np.zeros(util.TINY_CLASSES + 1, np.float32))],
                [(), (good[1][0],)],
                [(np.zeros(1, np.float32),), good[1]],
                [good[1]]):
        with pytest.raises(LayerSpecError, match="expected|groups"):
            nn.Model(layers, bad, util.TINY_SHAPE, util.TINY_CLASSES)
        with pytest.raises(LayerSpecError, match="expected|groups"):
            m.with_params(bad)
    conv = util.tiny_model(0, 2)
    w, b = conv.params[0]
    with pytest.raises(LayerSpecError, match="conv2d"):
        conv.with_params([(w.transpose(1, 0, 2, 3), b)] + list(conv.params[1:]))


def test_param_shapes():
    assert nn.param_shapes(nn.Dense(5, 3)) == ((3, 5), (3,))
    assert nn.param_shapes(nn.Conv2d(2, 4, 3, 2)) == ((4, 2, 3, 3), (4,))
    assert nn.param_shapes(nn.Relu()) == () and nn.param_shapes(nn.Flatten()) == ()


def test_layer_dict_round_trip():
    layers = [nn.Conv2d(1, 3, 3, 2), nn.Relu(), nn.Flatten(), nn.Dense(12, 4)]
    back = [nn.layer_from_dict(nn.layer_to_dict(l)) for l in layers]
    assert back == layers
    assert nn.layer_to_dict(layers[0]) == {"kind": "conv2d", "in_channels": 1, "out_channels": 3,
                                           "kernel_size": 3, "stride": 2}
    assert nn.layer_to_dict(nn.Relu()) == {"kind": "relu"}
    assert nn.layer_from_dict({"kind": "conv2d", "in_channels": 1, "out_channels": 3,
                               "kernel_size": 3}) == nn.Conv2d(1, 3, 3, 1)
    for bad in ({"kind": "pool"}, {"kind": ["dense"]}, [("kind", "relu")], "relu",
                {"kind": "dense", "in_features": 4},
                {"kind": "dense", "in_features": 4, "out_features": 2.0},
                {"kind": "dense", "in_features": False, "out_features": 2}):
        with pytest.raises(LayerSpecError):
            nn.layer_from_dict(bad)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_forward_finite_on_random_models(seed):
    m = util.tiny_model(seed % 1000, seed % 4)
    z = nn.forward(m, util.rand_image(seed % 997))
    assert np.all(np.isfinite(z)) and z.shape == (util.TINY_CLASSES,)


def _negative_models():
    """Dense and conv layers whose weights are all negative, so every
    product with a +0.0 upstream is -0.0."""
    d = int(np.prod(util.TINY_SHAPE))
    out = []
    for layers in ([nn.Flatten(), nn.Dense(d, util.TINY_CLASSES)],
                   [nn.Conv2d(1, 3, 3, 1), nn.Relu(), nn.Flatten(), nn.Dense(48, util.TINY_CLASSES)]):
        m = zoo.build_model(layers, util.TINY_SHAPE, util.TINY_CLASSES, 5)
        out.append(m.with_params([tuple(-np.abs(a) - np.float32(0.01) for a in group)
                                  for group in m.params]))
    return out


def test_zero_upstream_back_propagates_to_positive_zero(zoo_bundle):
    """The reverse pass of a +-0.0 upstream is +0.0 at the input, no sign
    bit set, for every default architecture fresh and trained and for
    all-negative weights: the ensemble gradient skips such a member and
    adds +0.0 once in its place."""
    _, dataset, trained = zoo_bundle
    side = dataset.side
    fresh = [zoo.build_model(layers, (1, side, side), dataset.num_classes, 3, model_id)
             for model_id, layers in zoo.default_zoo_specs(side, dataset.num_classes)]
    assert sorted(trained) == sorted(m.model_id for m in fresh)
    for m in fresh + list(trained.values()) + _negative_models():
        x = util.rand_image(1, m.input_shape)
        acts = nn._forward_saved(m, x)
        c = m.num_classes
        for upstream in (np.zeros(c, np.float32), -np.zeros(c, np.float32),
                         np.where(np.arange(c) % 2, np.float32(-0.0), np.float32(0.0))):
            dx, _ = nn.backward(m, acts, upstream)
            assert dx.shape == m.input_shape and not dx.any(), m.model_id
            assert not np.signbit(dx).any(), m.model_id

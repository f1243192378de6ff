"""The batch axis of nn._forward_saved and nn.backward, and the batched
zoo.train and zoo.accuracy built on it: every item's result is bitwise
its single-sample result, whatever batch it shares."""

import numpy as np
import pytest

import util
from ensattack import kernels, nn, oracle, zoo
from ensattack.errors import ShapeError
from ensattack.losses import cross_entropy, single_loss
from ensattack.prng import stream

SIDE, CLASSES, SEED = 12, 8, 7
DEFAULT_ARCHS = zoo.default_zoo_specs(SIDE, CLASSES)
# single-element parameter groups: a one-channel conv and a one-unit dense
ONE_UNIT = ("one-unit", [nn.Conv2d(1, 1, 3, 1), nn.Relu(), nn.Flatten(), nn.Dense(100, 1),
                         nn.Relu(), nn.Dense(1, CLASSES)])


def _ids(archs):
    return [mid for mid, _ in archs]


def _bits(arrays):
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


def _param_bits(model):
    return _bits(list(model.param_arrays()))


def _dataset():
    return zoo.make_synthetic_dataset(CLASSES, 25, SIDE, SEED)


@pytest.mark.parametrize("mid, layers", DEFAULT_ARCHS, ids=_ids(DEFAULT_ARCHS))
def test_batched_train_matches_per_sample_trainer(mid, layers):
    view = zoo.model_view(_dataset().train_split(), mid, SEED)
    assert len(view) == 100 and len(view) % zoo.BATCH_SIZE == 4  # a short last minibatch
    model = zoo.build_model(layers, (1, SIDE, SIDE), CLASSES, SEED, mid)
    cfg = zoo.TrainConfig(epochs=3, learning_rate=zoo.TRAIN_SCHEDULE.get(
        mid, zoo.DEFAULT_TRAIN).learning_rate, seed=3)
    got_record, ref_record = [], []
    got = zoo.train(model, view, cfg, record=got_record)
    ref = util.per_sample_train(model, view, cfg, record=ref_record)
    assert _param_bits(got) == _param_bits(ref)
    # per-sample Python floats added in sample order: equal, not merely close
    assert got_record == ref_record and len(got_record) == 3


def test_batched_train_matches_per_sample_trainer_under_clipping():
    # a large step makes the global norm clip fire
    ds = zoo.make_synthetic_dataset(4, 9, 8, 2)
    model = zoo.build_model([nn.Conv2d(1, 3, 3, 1), nn.Relu(), nn.Flatten(), nn.Dense(108, 4)],
                            (1, 8, 8), 4, 2)
    cfg = zoo.TrainConfig(epochs=2, learning_rate=2.0, seed=1, clip_norm=0.5)
    got_record, ref_record = [], []
    got = zoo.train(model, ds, cfg, record=got_record)
    ref = util.per_sample_train(model, ds, cfg, record=ref_record)
    assert _param_bits(got) == _param_bits(ref) and got_record == ref_record


def _upstreams(n, seed):
    """Random rows, with all-+0.0 and all--0.0 rows among them."""
    u = stream(seed, "upstream").uniform((n, CLASSES), -1.0, 1.0).astype(np.float32)
    u[1::4] = np.float32(0.0)
    u[2::4] = np.float32(-0.0)
    return u


@pytest.mark.parametrize("mid, layers", DEFAULT_ARCHS + [ONE_UNIT],
                         ids=_ids(DEFAULT_ARCHS + [ONE_UNIT]))
def test_item_results_do_not_depend_on_its_batch(mid, layers):
    ds = _dataset()
    x, labels = ds.images[::10], ds.labels[::10]  # 20 items, every class
    n = len(x)
    model = zoo.build_model(layers, (1, SIDE, SIDE), CLASSES, SEED, mid)
    u = _upstreams(n, SEED)
    acts = [nn._forward_saved(model, xi) for xi in x]
    ref_loss = [single_loss(a[-1], util.targeted(int(y)), util.TRAIN_LOSS)
                for a, y in zip(acts, labels)]
    ref_dx = [nn.backward(model, a, ui)[0] for a, ui in zip(acts, u)]
    ref_pg = [util.ref_param_grads(model, a, ui)[1] for a, ui in zip(acts, u)]

    for size in (1, 2, 5, 16, n):
        order = stream(size, "batch-order").permutation(n)
        for start in range(0, n, size):
            idx = order[start:start + size]
            batch_acts = nn._forward_saved(model, x[idx])
            assert _bits(batch_acts[-1]) == _bits([acts[i][-1] for i in idx])
            losses, g = cross_entropy(batch_acts[-1], labels[idx])
            assert losses.tolist() == [ref_loss[i][0] for i in idx]
            assert _bits(g) == _bits([ref_loss[i][1] for i in idx])
            dx, none = nn.backward(model, batch_acts, u[idx])
            assert none is None and _bits(dx) == _bits([ref_dx[i] for i in idx])
            none, pg = nn.backward(model, batch_acts, u[idx], want_param_grads=True)
            # the per-sample trainer's sum: +0.0, then each item in batch order
            want = [tuple(np.zeros_like(a) for a in group) for group in model.params]
            for i in idx:
                for acc_group, item_group in zip(want, ref_pg[i]):
                    for acc, val in zip(acc_group, item_group):
                        acc += val
            assert none is None
            assert [_bits(gr) for gr in pg] == [_bits(gr) for gr in want]


@pytest.mark.parametrize("mid, layers", DEFAULT_ARCHS, ids=_ids(DEFAULT_ARCHS))
def test_batched_accuracy_equals_per_sample_count(mid, layers):
    ds = _dataset()
    model = zoo.build_model(layers, (1, SIDE, SIDE), CLASSES, SEED, mid)
    trained = zoo.train(model, ds.train_split(), zoo.TrainConfig(epochs=2, learning_rate=0.05))
    for m in (model, trained):
        for split in (ds.train_split(), ds.test_split()):
            assert zoo.accuracy(m, split) == util.per_sample_accuracy(m, split)


def test_batched_accuracy_breaks_ties_toward_the_lowest_class():
    ds = zoo.make_synthetic_dataset(4, 3, 6, 1)
    flat = nn.Model([nn.Flatten(), nn.Dense(36, 4)],
                    [(), (np.zeros((4, 36), np.float32), np.zeros(4, np.float32))], (1, 6, 6), 4)
    # every logit ties, so every image is predicted class 0
    assert zoo.accuracy(flat, ds) == util.per_sample_accuracy(flat, ds) == 0.25


CONV_KERNELS = ("conv2d_forward", "conv2d_grad_input", "conv2d_grad_params")


def _count_kernel_calls(monkeypatch):
    """Call counts of each single-sample kernel and its ``_batch`` form,
    read through the returned function."""
    names = CONV_KERNELS + tuple(f"{k}_batch" for k in CONV_KERNELS)
    calls = {name: util.record_calls(monkeypatch, kernels, name) for name in names}
    return lambda: {name: len(c) for name, c in calls.items()}


def test_a_minibatch_makes_one_batched_kernel_call_per_conv_layer(monkeypatch):
    # cnn-b has two conv layers; the trainer takes no input gradient at the
    # lower one, and the one-sample PM path keeps the single-sample kernels
    mid, layers = DEFAULT_ARCHS[1]
    assert sum(isinstance(layer, nn.Conv2d) for layer in layers) == 2
    ds = _dataset()
    model = zoo.build_model(layers, (1, SIDE, SIDE), CLASSES, SEED, mid)
    view = zoo.model_view(ds.train_split(), mid, SEED)
    minibatches = -(-len(view) // zoo.BATCH_SIZE)
    counts = _count_kernel_calls(monkeypatch)
    zoo.train(model, view, zoo.TrainConfig(epochs=1))
    zoo.accuracy(model, ds.test_split())
    assert counts() == {"conv2d_forward_batch": 2 * minibatches + 2,
                        "conv2d_grad_params_batch": 2 * minibatches,
                        "conv2d_grad_input_batch": minibatches,
                        "conv2d_forward": 0, "conv2d_grad_input": 0, "conv2d_grad_params": 0}

    counts = _count_kernel_calls(monkeypatch)
    util.input_gradient(model, ds.images[0], np.ones(CLASSES, np.float32))
    assert counts() == {"conv2d_forward": 2, "conv2d_grad_input": 2, "conv2d_grad_params": 0,
                        "conv2d_forward_batch": 0, "conv2d_grad_input_batch": 0,
                        "conv2d_grad_params_batch": 0}


@pytest.mark.parametrize("arch", [0, 2], ids=["dense", "conv"])
def test_train_and_accuracy_reject_a_mismatched_image_shape(arch):
    model = util.tiny_model(0, arch)
    wrong_side = zoo.make_synthetic_dataset(util.TINY_CLASSES, 2, 8, 0)
    with pytest.raises(ShapeError):
        zoo.train(model, wrong_side, zoo.TrainConfig(epochs=1))
    with pytest.raises(ShapeError):
        zoo.accuracy(model, wrong_side)


def test_public_entry_points_still_take_one_sample():
    # the batch axis is private to the trainer and accuracy: the trust
    # boundary still rejects a batch of one
    model = util.tiny_model(1, 2)
    batch = util.rand_image(1)[None]
    with pytest.raises(ShapeError):
        nn.forward(model, batch)
    with pytest.raises(ShapeError):
        oracle.LocalOracle(model).query(batch)

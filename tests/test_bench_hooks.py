"""The names the benchmark in ``perfbench/`` patches must exist and be the
ones the program calls, or ``perfbench/run.py --trace 1`` breaks."""

from pathlib import Path

import numpy as np

import util
from ensattack import harness, kernels, nn, pm, server, zoo

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_span_hooks_install_trace_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    patched = [(nn, "_forward_saved"), (nn, "backward"), (kernels, "conv2d_forward"),
               (kernels, "conv2d_grad_input"), (zoo, "train"), (harness, "bases_attack"),
               (harness, "connect")]
    originals = [getattr(owner, name) for owner, name in patched]
    tracer, patcher = spans.Tracer(), spans.Patcher()
    spans.install(tracer, patcher)
    workloads.AttackClock().install(patcher)
    workloads.TrainClock().install(patcher)
    try:
        assert all(getattr(owner, name) is not fn
                   for (owner, name), fn in zip(patched, originals))
        model = util.tiny_model(0, 2)
        util.input_gradient(model, util.rand_image(0), np.ones(util.TINY_CLASSES, np.float32))
    finally:
        patcher.restore()
    assert all(getattr(owner, name) is fn for (owner, name), fn in zip(patched, originals))
    # the spans saw the calls the program made
    for span in ("kernels.conv_fwd", "kernels.conv_grad_input",
                 f"nn.fwd.{model.model_id}", f"nn.bwd.{model.model_id}"):
        assert tracer.calls(span) == 1, span


def test_traced_training_reports_its_metrics(monkeypatch):
    # the trainer's batches go to the kernels' _batch forms; the traced
    # kernel spans wrap the single-sample names and cost a per-sample shape,
    # so a batch reaching those names would make layer_metrics raise
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    layers = [nn.Conv2d(1, 3, 3, 1), nn.Relu(), nn.Conv2d(3, 2, 2, 2), nn.Relu(), nn.Flatten(),
              nn.Dense(8, util.TINY_CLASSES)]
    model = zoo.build_model(layers, util.TINY_SHAPE, util.TINY_CLASSES, 0, "two-conv")
    ds = zoo.make_synthetic_dataset(util.TINY_CLASSES, 5, util.TINY_SHAPE[-1], 0)
    tracer, patcher = spans.Tracer(), spans.Patcher()
    spans.install(tracer, patcher)
    try:
        zoo.accuracy(zoo.train(model, ds, zoo.TrainConfig(epochs=1)), ds)
    finally:
        patcher.restore()
    m = spans.layer_metrics(tracer, [model.model_id], 0, [])
    minibatches = -(-len(ds) // zoo.BATCH_SIZE)
    assert tracer.calls("zoo.train.two-conv") == tracer.calls("zoo.accuracy") == 1
    assert m["nn.fwd.calls"] == minibatches + 1 and m["nn.bwd.calls"] == minibatches
    assert m["zoo.train.two-conv.s"] > 0


def test_pm_spans_see_a_pm_run(monkeypatch):
    # --trace 1 reports pm.steps and losses.ensemble_grad.* from these spans
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    tracer, patcher = spans.Tracer(), spans.Patcher()
    spans.install(tracer, patcher)
    try:
        x = util.rand_image(0)
        cfg = pm.PMConfig(pm.Budget("linf", 0.1), steps=2)
        pm.pm_run(x, util.targeted(1), [util.tiny_model(0, 0), util.tiny_model(1, 2)],
                  [0.5, 0.5], np.zeros_like(x), cfg)
    finally:
        patcher.restore()
    assert tracer.calls("pm.run") == 1
    assert tracer.calls("losses.ensemble_grad") == 2
    assert tracer.calls("pm.project") == 3  # the warm start, then one per step


def test_served_victim_hooks_exist():
    # perfbench reports the kernel backend and victim_server.py times these
    assert kernels.BACKEND == "numpy"
    for name in ("_send", "do_GET", "do_POST"):
        assert callable(getattr(server._Handler, name)), name

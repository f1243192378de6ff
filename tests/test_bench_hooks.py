"""The names the benchmark in ``perfbench/`` patches must exist and be the
ones the program calls, or ``perfbench/run.py --trace 1`` breaks."""

from pathlib import Path

import numpy as np

import util
from ensattack import harness, kernels, nn, server, zoo

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_span_hooks_install_trace_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    patched = [(nn, "_forward_saved"), (nn, "backward"), (kernels, "conv2d_forward"),
               (kernels, "conv2d_grad_input"), (zoo, "train"), (harness, "bases_attack")]
    originals = [getattr(owner, name) for owner, name in patched]
    tracer, patcher = spans.Tracer(), spans.Patcher()
    spans.install(tracer, patcher)
    workloads.AttackClock().install(patcher)
    workloads.TrainClock().install(patcher)
    try:
        assert all(getattr(owner, name) is not fn
                   for (owner, name), fn in zip(patched, originals))
        model = util.tiny_model(0, 2)
        nn.input_gradient(model, util.rand_image(0), np.ones(util.TINY_CLASSES, np.float32))
    finally:
        patcher.restore()
    assert all(getattr(owner, name) is fn for (owner, name), fn in zip(patched, originals))
    # the spans saw the calls the program made
    for span in ("kernels.conv_fwd", "kernels.conv_grad_input",
                 f"nn.fwd.{model.model_id}", f"nn.bwd.{model.model_id}"):
        assert tracer.calls(span) == 1, span


def test_served_victim_hooks_exist():
    # perfbench reports the kernel backend and victim_server.py times these
    assert kernels.BACKEND == "numpy"
    for name in ("_send", "do_GET", "do_POST"):
        assert callable(getattr(server._Handler, name)), name

"""Tests of the benchmark's own statistics, cost model and span accounting.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import benchstats  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from benchstats import conv_cost, ok_frac, percentile  # noqa: E402


@pytest.mark.parametrize("p, enough", [(50, 20), (90, 100), (99, 1000)])
def test_percentile_needs_ten_samples_beyond(p, enough):
    with pytest.raises(ValueError):
        percentile(list(range(enough - 1)), p)
    assert percentile(list(range(enough)), p) == enough - 10 - 1


def test_percentile_is_nearest_rank_and_ignores_order():
    values = [float(v) for v in range(100, 0, -1)]  # 100 .. 1, reversed
    assert percentile(values, 90) == 90.0
    assert percentile(values, 50) == 50.0
    with pytest.raises(ValueError):
        percentile(values, 99)


@pytest.mark.parametrize("p", [0, 100, 50.0])
def test_percentile_rejects_bad_ranks(p):
    with pytest.raises(ValueError):
        percentile(list(range(5000)), p)


def test_unexercised_layer_reports_zero():
    assert benchstats.percentile_or_zero([], 50) == 0.0
    with pytest.raises(ValueError):
        benchstats.percentile_or_zero([1.0] * 5, 50)


def test_failures_count_against_attempts():
    assert ok_frac(10, 0) == 1.0
    assert ok_frac(10, 3) == pytest.approx(0.7)
    with pytest.raises(ValueError):
        ok_frac(0, 0)
    with pytest.raises(ValueError):
        ok_frac(3, 4)  # a failure is also an attempt


class _Clock:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latency_ns = []


class _FailingWorkload:
    """Its second unit raises before any attack could count itself."""

    kinds = ["victim"]

    def __init__(self):
        self.clock = _Clock()
        self.failures = []

    def run_unit(self, k, out_root, call):
        if self.clock.attempted:
            raise RuntimeError("victim unreachable")
        self.clock.attempted += 1
        self.clock.latency_ns += [1] * 10
        return 1, str(out_root / str(k))


def test_a_unit_that_raises_is_a_failed_attempt(tmp_path):
    wl = _FailingWorkload()
    walls, dirs = run.measure(wl, tmp_path, None, seconds=60.0)
    assert walls == [1] and len(dirs) == 1
    assert (wl.clock.attempted, wl.clock.failed) == (2, 1)
    assert ok_frac(wl.clock.attempted, wl.clock.failed) == 0.5
    assert wl.failures and "victim unreachable" in wl.failures[0]


def test_conv_cost_hand_worked():
    # x 1x12x12, 8 kernels 3x3, stride 1: output 8x10x10, 7200 multiply-adds
    x, w = (1, 12, 12), (8, 1, 3, 3)
    assert conv_cost("conv_fwd", x, w, 1) == (2 * 7200 + 800, 4 * (144 + 72 + 8 + 800))
    assert conv_cost("conv_grad_input", x, w, 1) == (2 * 7200, 4 * (800 + 72 + 144))
    assert conv_cost("conv_grad_params", x, w, 1) == (2 * 7200 + 800, 4 * (800 + 144 + 72 + 8))
    # x 6x10x10, 10 kernels 3x3, stride 2: output 10x4x4, 8640 multiply-adds
    assert conv_cost("conv_fwd", (6, 10, 10), (10, 6, 3, 3), 2) == (17440, 5240)


def test_conv_cost_output_matches_the_kernel():
    from ensattack.kernels import reference

    x = np.zeros((6, 10, 10), dtype=np.float32)
    w = np.zeros((10, 6, 3, 3), dtype=np.float32)
    y = reference.conv2d_forward(x, w, np.zeros(10, dtype=np.float32), 2)
    flops, nbytes = conv_cost("conv_fwd", x.shape, w.shape, 2)
    assert flops == 2 * w.size * y.shape[1] * y.shape[2] + y.size
    assert nbytes == 4 * (x.size + w.size + 10 + y.size)
    with pytest.raises(ValueError):
        conv_cost("conv_fwd", (3, 10, 10), w.shape, 2)


def test_self_times_sum_to_root_spans():
    tracer = spans.Tracer()

    def leaf():
        return sum(range(2000))

    inner = tracer.wrap("nn.fwd.x", lambda: leaf() + leaf())
    outer = tracer.wrap("pm.run", lambda: inner() + inner(), keep=True)
    outer()
    outer()
    assert tracer.calls("pm.run") == 2 and tracer.calls("nn.fwd.x") == 4
    assert len(tracer.samples["pm.run"]) == 2
    selfs = [st[2] for st in tracer.stats.values()]
    assert all(s >= 0 for s in selfs)
    assert sum(selfs) == tracer.root_ns == sum(tracer.samples["pm.run"])
    assert tracer.layer_self_ns("pm") + tracer.layer_self_ns("nn") == tracer.root_ns


def test_round_trips_pair_with_server_requests():
    tracer = spans.Tracer()
    tracer.samples["client.rtt"] = [5_000_000] * 100
    m = spans.layer_metrics(tracer, [], queries=50, server_handle_ns=[1_000_000] * 100)
    assert m["client.wait_p50_ms"] == 4.0
    assert m["server.requests_per_query"] == 2.0
    with pytest.raises(ValueError):
        spans.layer_metrics(tracer, [], queries=50, server_handle_ns=[1_000_000] * 99)

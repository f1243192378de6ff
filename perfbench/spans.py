"""Per-layer spans recorded from outside the program.

The traced run replaces the module-level entry points of each layer
(``pm.pm_run``, ``nn.backward``, ``kernels.conv2d_*``, ...) with wrappers
that time every call, then restores them. Nothing in the package is
edited: the wrappers are installed on the names the callers look up at
call time, so a span sees exactly the calls the program makes.

A span's self time is its duration minus the time of the spans it caused.
Self times are aggregated per span name while the run goes, so memory
stays flat; raw durations are kept only for the spans whose percentiles
are reported.
"""

from collections import Counter
from time import perf_counter_ns

from benchstats import conv_cost, percentile_or_zero

# layer prefixes, in report order; a span named "<layer>.<x>" belongs to it
LAYERS = ("kernels", "nn", "losses", "pm", "search", "oracle", "client", "zoo", "harness")
CONV_OPS = ("conv_fwd", "conv_grad_input", "conv_grad_params")


class Patcher:
    """Replaces attributes and puts every original back on restore()."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)


class Tracer:
    """Aggregates nested spans: calls, total and self nanoseconds per name."""

    def __init__(self):
        self.stats = {}  # name -> [calls, total_ns, self_ns]
        self.samples = {}  # name -> durations (ns), for names kept
        self.root_ns = 0  # summed duration of spans with no parent
        self.kernel_shapes = Counter()  # (op, x_shape, w_shape, stride) -> calls
        self.bwd_input_shape = None  # input shape of the model in nn.backward
        self.training = 0  # > 0 while inside zoo.train
        self.train_grad_input_ns = 0
        self.discarded_grad_input_ns = 0
        self._stack = []  # child time accumulated by each open span

    def _close(self, name: str, dur: int) -> None:
        child = self._stack.pop()
        if self._stack:
            self._stack[-1] += dur
        else:
            self.root_ns += dur
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0, 0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child

    def wrap(self, name: str, fn, keep: bool = False):
        """``fn`` timed as span ``name``; durations kept if ``keep``."""
        samples = self.samples.setdefault(name, []) if keep else None

        def span(*args, **kwargs):
            self._stack.append(0)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                self._close(name, dur)
                if samples is not None:
                    samples.append(dur)
        return span

    def wrap_per_model(self, prefix: str, fn):
        """Like wrap(), named ``prefix + model.model_id`` from the first
        argument."""
        names = {}

        def span(model, *args, **kwargs):
            name = names.get(model.model_id)
            if name is None:
                name = names[model.model_id] = prefix + model.model_id
            self._stack.append(0)
            t0 = perf_counter_ns()
            try:
                return fn(model, *args, **kwargs)
            finally:
                self._close(name, perf_counter_ns() - t0)
        return span

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[0]

    def seconds(self, name: str) -> float:
        return self.stats.get(name, (0, 0, 0))[1] / 1e9

    def sum_where(self, pred, field: int) -> int:
        return sum(st[field] for name, st in self.stats.items() if pred(name))

    def layer_self_ns(self, layer: str) -> int:
        return self.sum_where(lambda n: n.startswith(layer + "."), 2)


def install(tracer: Tracer, patcher: Patcher) -> None:
    """Wraps the entry points of every layer of the in-process program."""
    import requests

    from ensattack import client, harness, kernels, nn, oracle, pm, zoo

    patcher.set(harness, "bases_attack", tracer.wrap("search.bases_attack", harness.bases_attack))
    patcher.set(harness, "connect", tracer.wrap("client.connect", harness.connect))
    patcher.set(pm, "pm_run", tracer.wrap("pm.run", pm.pm_run, keep=True))
    patcher.set(pm, "project", tracer.wrap("pm.project", pm.project))
    # pm imported ensemble_input_gradient by name, so it is wrapped there
    patcher.set(pm, "ensemble_input_gradient",
                tracer.wrap("losses.ensemble_grad", pm.ensemble_input_gradient))
    patcher.set(nn, "_forward_saved", tracer.wrap_per_model("nn.fwd.", nn._forward_saved))

    bwd = tracer.wrap_per_model("nn.bwd.", nn.backward)

    def backward(model, *args, **kwargs):
        tracer.bwd_input_shape = model.input_shape
        return bwd(model, *args, **kwargs)
    patcher.set(nn, "backward", backward)

    shapes = tracer.kernel_shapes
    fwd = tracer.wrap("kernels.conv_fwd", kernels.conv2d_forward)
    gin = tracer.wrap("kernels.conv_grad_input", kernels.conv2d_grad_input)
    gpar = tracer.wrap("kernels.conv_grad_params", kernels.conv2d_grad_params)

    def conv2d_forward(x, w, b, stride):
        shapes[("conv_fwd", x.shape, w.shape, stride)] += 1
        return fwd(x, w, b, stride)

    def conv2d_grad_input(dy, w, stride, in_h, in_w):
        shapes[("conv_grad_input", (w.shape[1], in_h, in_w), w.shape, stride)] += 1
        if not tracer.training:
            return gin(dy, w, stride, in_h, in_w)
        t0 = perf_counter_ns()
        dx = gin(dy, w, stride, in_h, in_w)
        dur = perf_counter_ns() - t0
        tracer.train_grad_input_ns += dur
        if dx.shape == tracer.bwd_input_shape:  # gradient w.r.t. the model input
            tracer.discarded_grad_input_ns += dur
        return dx

    def conv2d_grad_params(dy, x, kh, kw, stride):
        shapes[("conv_grad_params", x.shape, (dy.shape[0], x.shape[0], kh, kw), stride)] += 1
        return gpar(dy, x, kh, kw, stride)

    patcher.set(kernels, "conv2d_forward", conv2d_forward)
    patcher.set(kernels, "conv2d_grad_input", conv2d_grad_input)
    patcher.set(kernels, "conv2d_grad_params", conv2d_grad_params)

    patcher.set(oracle.LocalOracle, "query",
                tracer.wrap("oracle.query", oracle.LocalOracle.query, keep=True))
    patcher.set(client.RemoteOracle, "query", tracer.wrap("client.query", client.RemoteOracle.query))
    patcher.set(requests.Session, "request",
                tracer.wrap("client.rtt", requests.Session.request, keep=True))

    patcher.set(zoo, "load_model", tracer.wrap("zoo.load_model", zoo.load_model))
    patcher.set(zoo, "load_dataset", tracer.wrap("zoo.load_dataset", zoo.load_dataset))
    patcher.set(zoo, "accuracy", tracer.wrap("zoo.accuracy", zoo.accuracy))
    train = tracer.wrap_per_model("zoo.train.", zoo.train)

    def train_model(model, *args, **kwargs):
        tracer.training += 1
        try:
            return train(model, *args, **kwargs)
        finally:
            tracer.training -= 1
    patcher.set(zoo, "train", train_model)


def layer_metrics(tracer: Tracer, model_ids, queries: int, server_handle_ns) -> dict:
    """Every per-layer metric from one traced run. A layer the workload
    does not exercise reports zero calls, zero time and zero percentiles.

    ``queries`` is the number of victim queries the attacks made and
    ``server_handle_ns`` the served victim's handler durations, in the
    order the requests arrived (empty when nothing was served).
    """
    t = tracer
    m = {}
    for op in CONV_OPS:
        name = f"kernels.{op}"
        calls = t.calls(name)
        flops = nbytes = 0
        for (kop, x_shape, w_shape, stride), n in t.kernel_shapes.items():
            if kop == op:
                f, b = conv_cost(op, x_shape, w_shape, stride)
                flops += n * f
                nbytes += n * b
        m[f"{name}.calls"] = calls
        m[f"{name}.s"] = t.seconds(name)
        m[f"{name}.us_per_call"] = t.seconds(name) / calls * 1e6 if calls else 0.0
        m[f"{name}.gflop"] = flops / 1e9
        m[f"{name}.mb_moved"] = nbytes / 1e6
    m["kernels.grad_input_discarded_frac"] = (
        t.discarded_grad_input_ns / t.train_grad_input_ns if t.train_grad_input_ns else 0.0)

    for kind in ("fwd", "bwd"):
        prefix = f"nn.{kind}."
        m[f"nn.{kind}.calls"] = t.sum_where(lambda n: n.startswith(prefix), 0)
        m[f"nn.{kind}.s"] = t.sum_where(lambda n: n.startswith(prefix), 1) / 1e9
        for mid in model_ids:
            m[f"nn.{kind}.{mid}.s"] = t.seconds(prefix + mid)

    m["losses.ensemble_grad.calls"] = t.calls("losses.ensemble_grad")
    m["losses.ensemble_grad.s"] = t.seconds("losses.ensemble_grad")

    runs = t.calls("pm.run")
    m["pm.run.calls"] = runs
    m["pm.run.s"] = t.seconds("pm.run")
    m["pm.run_p50_us"] = percentile_or_zero(t.samples.get("pm.run", []), 50) / 1e3
    m["pm.steps"] = t.calls("losses.ensemble_grad")
    m["pm.project.calls"] = t.calls("pm.project")
    m["pm.project.s"] = t.seconds("pm.project")

    m["search.pm_runs"] = runs
    m["search.queries"] = queries
    m["search.pm_runs_per_query"] = runs / queries if queries else 0.0

    m["oracle.query.calls"] = t.calls("oracle.query")
    m["oracle.query.s"] = t.seconds("oracle.query")
    m["oracle.query_p50_us"] = percentile_or_zero(t.samples.get("oracle.query", []), 50) / 1e3

    rtt = t.samples.get("client.rtt", [])
    if rtt and len(rtt) != len(server_handle_ns):
        raise ValueError(f"client sent {len(rtt)} requests, server handled "
                         f"{len(server_handle_ns)}")
    # one client with one outstanding request: the i-th round trip is the
    # i-th request the server handled
    wait = [r - h for r, h in zip(rtt, server_handle_ns)]
    m["client.rtt_p50_ms"] = percentile_or_zero(rtt, 50) / 1e6
    m["client.rtt_p90_ms"] = percentile_or_zero(rtt, 90) / 1e6
    m["client.wait_p50_ms"] = percentile_or_zero(wait, 50) / 1e6
    m["client.connects"] = t.calls("client.connect")
    m["client.connect.s"] = t.seconds("client.connect")
    m["server.requests"] = len(server_handle_ns)
    m["server.handle_p50_ms"] = percentile_or_zero(server_handle_ns, 50) / 1e6
    m["server.requests_per_query"] = len(server_handle_ns) / queries if queries else 0.0

    for mid in model_ids:
        m[f"zoo.train.{mid}.s"] = t.seconds(f"zoo.train.{mid}")
    for name in ("zoo.load_model", "zoo.load_dataset", "zoo.accuracy"):
        m[f"{name}.s"] = t.seconds(name)

    for layer in LAYERS:
        m[f"{layer}.self_s"] = t.layer_self_ns(layer) / 1e9
    return m

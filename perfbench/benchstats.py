"""Statistics and cost models shared by the benchmark.

Percentiles use the nearest-rank definition and refuse any percentile that
has fewer than ten samples beyond it, so a reported tail always rests on at
least ten observations. Kernel work is computed from the conv shapes, not
measured: a CPU run can count operations and bytes, not observe them.
"""

MIN_BEYOND = 10


def percentile(values, p: int) -> float:
    """Nearest-rank p-th percentile (p an integer in 1..99).

    Raises ValueError when fewer than MIN_BEYOND samples lie above the
    chosen rank, e.g. p50 needs 20 samples, p90 100 and p99 1000.
    """
    if not isinstance(p, int) or not 0 < p < 100:
        raise ValueError(f"percentile must be an integer in 1..99, got {p!r}")
    n = len(values)
    rank = -(-p * n // 100)  # ceil(p * n / 100) in exact integer arithmetic
    if n - rank < MIN_BEYOND:
        raise ValueError(f"p{p} of {n} samples has {max(n - rank, 0)} beyond it; "
                         f"need {MIN_BEYOND}")
    return sorted(values)[rank - 1]


def percentile_or_zero(values, p: int) -> float:
    """percentile(), except that a layer with no samples reports 0."""
    return percentile(values, p) if values else 0.0


def ok_frac(attempted: int, failed: int) -> float:
    """Share of attempted operations that succeeded. ``attempted`` counts
    the failed operations too, so failures always lower the result."""
    if attempted < 1:
        raise ValueError("nothing was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failures out of {attempted} attempts")
    return (attempted - failed) / attempted


def conv_cost(op: str, x_shape, w_shape, stride: int):
    """(flops, bytes) of one conv kernel call, computed from its shapes.

    ``x_shape`` is the layer input (cin, h, w) and ``w_shape`` the kernel
    (cout, cin, k, k), for every op. A multiply-add counts as two flops;
    bias adds and the bias-gradient sum count one each. Bytes are the
    float32 operands read plus results written, each touched once.
    """
    cin, h, w = x_shape
    cout, wcin, kh, kw = w_shape
    if wcin != cin:
        raise ValueError(f"kernel expects {wcin} input channels, input has {cin}")
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    macs = cout * cin * kh * kw * oh * ow
    x, wt, y = cin * h * w, cout * cin * kh * kw, cout * oh * ow
    if op == "conv_fwd":  # reads x, w, b; writes y
        return 2 * macs + y, 4 * (x + wt + cout + y)
    if op == "conv_grad_input":  # reads dy, w; writes dx
        return 2 * macs, 4 * (y + wt + x)
    if op == "conv_grad_params":  # reads dy, x; writes dw, db
        return 2 * macs + y, 4 * (y + x + wt + cout)
    raise ValueError(f"unknown conv op {op!r}")

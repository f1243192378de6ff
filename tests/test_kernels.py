import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import util
from ensattack import kernels
from ensattack.kernels import reference
from ensattack.prng import stream


def _case(seed, cin, h, w, cout, k, stride):
    s = stream(seed, "kcase")
    x = s.uniform((cin, h, w), -1.0, 1.0).astype(np.float32)
    wt = s.uniform((cout, cin, k, k), -1.0, 1.0).astype(np.float32)
    b = s.uniform((cout,), -1.0, 1.0).astype(np.float32)
    oh, ow = (h - k) // stride + 1, (w - k) // stride + 1
    dy = s.uniform((cout, oh, ow), -1.0, 1.0).astype(np.float32)
    return x, wt, b, dy


CASES = [(1, 6, 6, 3, 3, 1), (2, 7, 5, 4, 2, 1), (3, 8, 8, 2, 3, 2),
         (1, 9, 9, 5, 5, 2), (4, 6, 6, 1, 1, 1)]


@st.composite
def _shapes(draw):
    """(cin, h, w, cout, k, stride) with the kernel clipped to fit the input.
    Inputs are non-square in general, and strides 2 and 3 leave rows and
    columns the last window does not reach when (h - k) % stride != 0."""
    cin, h, w = draw(st.integers(1, 3)), draw(st.integers(3, 11)), draw(st.integers(3, 11))
    cout, k, stride = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    return cin, h, w, cout, min(k, h, w), stride


# every fixed case also runs on fuzzed shapes drawn with their own seeds
FUZZ = dict(seed=st.integers(0, 10**6), shape=_shapes())


def _forward_matches(seed, shape):
    x, wt, b, dy = _case(seed, *shape)
    y = kernels.conv2d_forward(x, wt, b, shape[5])
    ref = util.naive_conv_forward(x, wt, b, shape[5])
    assert y.shape == ref.shape
    assert np.max(np.abs(y.astype(np.float64) - ref)) < 1e-5


def _grad_input_adjoint(seed, shape):
    # <conv(x), dy> == <x, grad_input(dy)> for the linear (bias-free) part
    x, wt, b, dy = _case(seed, *shape)
    zero_b = np.zeros_like(b)
    y = kernels.conv2d_forward(x, wt, zero_b, shape[5])
    dx = kernels.conv2d_grad_input(dy, wt, shape[5], shape[1], shape[2])
    lhs = float(np.sum(y.astype(np.float64) * dy.astype(np.float64)))
    rhs = float(np.sum(x.astype(np.float64) * dx.astype(np.float64)))
    assert abs(lhs - rhs) < 1e-4 * max(1.0, abs(lhs))


def _grad_params_adjoint(seed, shape):
    # <conv_w(x) + b, dy> is linear in (w, b); its gradient must satisfy
    # <dw, w> + <db, b> == <y, dy>
    x, wt, b, dy = _case(seed, *shape)
    y = kernels.conv2d_forward(x, wt, b, shape[5])
    dw, db = kernels.conv2d_grad_params(dy, x, shape[4], shape[4], shape[5])
    lhs = float(np.sum(y.astype(np.float64) * dy.astype(np.float64)))
    rhs = float(np.sum(dw.astype(np.float64) * wt.astype(np.float64))
                + np.sum(db.astype(np.float64) * b.astype(np.float64)))
    assert abs(lhs - rhs) < 1e-4 * max(1.0, abs(lhs))


# the "backend" id names the kernels that ran
@pytest.mark.parametrize("backend", [kernels.BACKEND])
@pytest.mark.parametrize("case", CASES)
@given(**FUZZ)
@settings(max_examples=10, deadline=None)
def test_forward_matches_plain_loops(backend, case, seed, shape):
    _forward_matches(hash(case) & 0xFFFF, case)
    _forward_matches(seed, shape)


@pytest.mark.parametrize("case", CASES)
@given(**FUZZ)
@settings(max_examples=10, deadline=None)
def test_grad_input_is_adjoint_of_forward(case, seed, shape):
    _grad_input_adjoint(hash(case) & 0xFFF, case)
    _grad_input_adjoint(seed, shape)


@pytest.mark.parametrize("case", CASES)
@given(**FUZZ)
@settings(max_examples=10, deadline=None)
def test_grad_params_is_adjoint_in_weights(case, seed, shape):
    _grad_params_adjoint(hash(case) & 0xAFF, case)
    _grad_params_adjoint(seed, shape)


def test_active_backend_exported():
    assert kernels.BACKEND == "numpy"
    assert kernels.conv2d_forward is kernels.reference.conv2d_forward


# ---------------------------------------------------------------------------
# bitwise agreement with the tensordot kernels the im2col kernels replaced

BIT_CASES = [(1, 12, 12, 8, 3, 1), (1, 12, 12, 6, 3, 1), (6, 10, 10, 10, 3, 2),
             (1, 12, 12, 10, 5, 2), (1, 12, 12, 7, 4, 1), (7, 9, 9, 7, 3, 2),
             (2, 9, 6, 3, 2, 2), (3, 8, 11, 2, 3, 2), (2, 7, 10, 4, 3, 3)]

# how the upstream's zeros are signed: none, all +0.0, all -0.0, or a mix
# of +0.0, -0.0 and nonzero entries
ZEROS = st.sampled_from(["none", "+0", "-0", "mixed"])


def _signed_zeros(dy, zeros, seed):
    if zeros == "+0":
        return np.zeros_like(dy)
    if zeros == "-0":
        return np.full_like(dy, -0.0)
    if zeros == "mixed":
        pick = np.floor(stream(seed, "zeros").uniform(dy.shape, 0.0, 3.0))
        dy = np.where(pick == 0, np.float32(0.0), dy)
        return np.where(pick == 1, np.float32(-0.0), dy).astype(np.float32)
    return dy


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _tensordot_operand_is_view(x, k, stride, order, split):
    """Whether tensordot's reshape of the transposed window view of x, its
    first ``split`` axes against the rest, was a view of x rather than a
    copy. It is for degenerate shapes only, such as a 1x1 kernel at stride
    1 or a kernel as wide as the input."""
    t = util.conv_windows(x, k, k, stride).transpose(order)
    return np.shares_memory(t.reshape(int(np.prod(t.shape[:split])), -1), x)


def _agree(got, want, rounding_only):
    if rounding_only:
        return got.shape == want.shape and np.allclose(got, want, rtol=1e-5, atol=1e-5)
    return _same_bits(got, want)


def _kernels_match(seed, shape, zeros):
    cin, h, w, cout, k, stride = shape
    x, wt, b, dy = _case(seed, *shape)
    dy = _signed_zeros(dy, zeros, seed)

    assert _same_bits(kernels.conv2d_grad_input(dy, wt, stride, h, w),
                      util.tensordot_conv_grad_input(dy, wt, stride, h, w))

    # With one output channel NumPy's dot is a matrix-vector product, and
    # its summation order follows the layout of the window operand. The
    # gathered operand is always C-contiguous; tensordot's was a strided
    # view of x for degenerate shapes, so there the two agree to rounding.
    y = kernels.conv2d_forward(x, wt, b, stride)
    assert y.flags.c_contiguous
    assert _agree(y, util.tensordot_conv_forward(x, wt, b, stride),
                  cout == 1 and _tensordot_operand_is_view(x, k, stride, (0, 3, 4, 1, 2), 3))

    dw, db = kernels.conv2d_grad_params(dy, x, k, k, stride)
    dw_ref, db_ref = util.tensordot_conv_grad_params(dy, x, k, k, stride)
    assert _same_bits(db, db_ref)
    assert _agree(dw, dw_ref,
                  cout == 1 and _tensordot_operand_is_view(x, k, stride, (1, 2, 0, 3, 4), 2))


@pytest.mark.parametrize("case", BIT_CASES)
@given(seed=st.integers(0, 10**6), shape=_shapes(), zeros=ZEROS)
@settings(max_examples=15, deadline=None)
def test_kernels_bitwise_equal_tensordot_kernels(case, seed, shape, zeros):
    _kernels_match(seed, case, zeros)
    _kernels_match(seed, shape, zeros)


# ---------------------------------------------------------------------------
# the batch forms equal the single-sample kernels item by item

# the six default conv layers (BIT_CASES[:6]), 1x1 kernels with one and
# several output channels, and kernels as wide as their input
BATCH_CASES = BIT_CASES[:6] + [(4, 6, 6, 1, 1, 1), (3, 6, 7, 4, 1, 1), (2, 5, 5, 3, 5, 1),
                               (3, 6, 6, 1, 6, 1), (2, 5, 7, 3, 5, 2)]
BATCHES = (1, 2, 5, 16)


def _batch_case(seed, batch, shape):
    items = [_case(seed + i, *shape) for i in range(batch)]
    x = np.stack([it[0] for it in items])
    dy = np.stack([it[3] for it in items])
    dy[batch // 2] = 0.0  # an all-zero upstream row, as a fooled member gives
    if batch > 2:
        dy[-1] = -0.0
    _, wt, b, _ = items[0]
    return x, wt, b, dy


def _batch_matches(seed, batch, shape, zeros):
    cin, h, w, cout, k, stride = shape
    x, wt, b, dy = _batch_case(seed, batch, shape)
    dy = _signed_zeros(dy, zeros, seed)
    y = kernels.conv2d_forward_batch(x, wt, b, stride)
    dx = kernels.conv2d_grad_input_batch(dy, wt, stride, h, w)
    dw, db = kernels.conv2d_grad_params_batch(dy, x, k, k, stride)
    assert y.shape[0] == dx.shape[0] == dw.shape[0] == db.shape[0] == batch
    for i in range(batch):
        assert _same_bits(y[i], kernels.conv2d_forward(x[i], wt, b, stride))
        assert _same_bits(dx[i], kernels.conv2d_grad_input(dy[i], wt, stride, h, w))
        # the single-sample parameter gradient is the batch kernel at B = 1
        one = kernels.conv2d_grad_params(dy[i], x[i], k, k, stride)
        assert _same_bits(dw[i], one[0]) and _same_bits(db[i], one[1])


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("case", BATCH_CASES)
def test_batch_kernels_equal_per_item_kernels(case, batch):
    _batch_matches(batch, batch, case, "none")


@given(seed=st.integers(0, 10**6), shape=_shapes(), batch=st.sampled_from(BATCHES),
       zeros=ZEROS)
@settings(max_examples=40, deadline=None)
def test_batch_kernels_equal_per_item_kernels_on_fuzzed_shapes(seed, shape, batch, zeros):
    _batch_matches(seed, batch, shape, zeros)


def test_cached_indices_are_read_only_and_bounded():
    for index in (reference._cols_index, reference._rows_index):
        idx = index(2, 7, 5, 3, 3, 2)
        assert not idx.flags.writeable
        with pytest.raises(ValueError):
            idx[0, 0] = 0
        assert index(2, 7, 5, 3, 3, 2) is idx
        maxsize = index.cache_info().maxsize
        assert maxsize is not None
        for side in range(3, maxsize + 13):
            index(1, side, 3, 3, 3, 1)
        assert index.cache_info().currsize == maxsize
    idx = reference._scatter_index(3, 2, 7, 5, 3, 3, 2)
    assert not idx.flags.writeable and reference._scatter_index(3, 2, 7, 5, 3, 3, 2) is idx
    assert reference._scatter_index.cache_info().maxsize is not None


def test_kernels_agree_across_threads():
    # a served victim's handler threads share the cached indices, and the
    # batch forms also a scatter index per batch size; each thread starts on
    # a different shape so the caches fill under contention
    cases = []
    for i, (cin, h, w, cout, k, stride) in enumerate(BIT_CASES):
        x, wt, b, dy = _case(i, cin, h, w, cout, k, stride)
        want = (util.tensordot_conv_forward(x, wt, b, stride),
                util.tensordot_conv_grad_input(dy, wt, stride, h, w),
                *util.tensordot_conv_grad_params(dy, x, k, k, stride))
        cases.append(((x, wt, b, dy, h, w, k, stride), want))
    mismatches = []

    def work(offset):
        for r in range(40):
            (x, wt, b, dy, h, w, k, stride), want = cases[(offset + r) % len(cases)]
            got = (kernels.conv2d_forward(x, wt, b, stride),
                   kernels.conv2d_grad_input(dy, wt, stride, h, w),
                   *kernels.conv2d_grad_params(dy, x, k, k, stride))
            batch = 1 + (offset + r) % 5
            xs, dys = np.stack([x] * batch), np.stack([dy] * batch)
            got_batch = (kernels.conv2d_forward_batch(xs, wt, b, stride),
                         kernels.conv2d_grad_input_batch(dys, wt, stride, h, w),
                         *kernels.conv2d_grad_params_batch(dys, xs, k, k, stride))
            if not all(_same_bits(g, v) for g, v in zip(got, want)) or not all(
                    _same_bits(g[i], v) for g, v in zip(got_batch, want) for i in range(batch)):
                mismatches.append((offset, r))

    reference._cols_index.cache_clear()
    reference._rows_index.cache_clear()
    reference._scatter_index.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import util
from ensattack import kernels
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
    """(cin, h, w, cout, k, stride) with the kernel clipped to fit the input."""
    cin, h, w = draw(st.integers(1, 3)), draw(st.integers(4, 9)), draw(st.integers(4, 9))
    cout, k, stride = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
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

"""Pure-NumPy convolution kernels.

Valid padding, square kernels, single sample, channel-first layout.
All arrays are float32 and C-contiguous; callers guarantee both.
"""

import numpy as np


def _windows(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    cin, h, w = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    s0, s1, s2 = x.strides
    return np.lib.stride_tricks.as_strided(
        x, (cin, oh, ow, kh, kw), (s0, s1 * stride, s2 * stride, s1, s2)
    )


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int) -> np.ndarray:
    """y[co,p,q] = b[co] + sum_{ci,u,v} x[ci, p*s+u, q*s+v] * w[co,ci,u,v]"""
    win = _windows(x, w.shape[2], w.shape[3], stride)
    y = np.tensordot(w, win, axes=([1, 2, 3], [0, 3, 4]))
    y += b[:, None, None]
    return np.ascontiguousarray(y, dtype=np.float32)


def conv2d_grad_input(dy: np.ndarray, w: np.ndarray, stride: int, in_h: int, in_w: int) -> np.ndarray:
    """Gradient of the forward output w.r.t. the input, given upstream dy."""
    cout, cin, kh, kw = w.shape
    oh, ow = dy.shape[1], dy.shape[2]
    dx = np.zeros((cin, in_h, in_w), dtype=np.float32)
    # t[ci,u,v,p,q] = sum_co w[co,ci,u,v] * dy[co,p,q]
    t = np.tensordot(w, dy, axes=([0], [0]))
    for u in range(kh):
        for v in range(kw):
            dx[:, u : u + stride * oh : stride, v : v + stride * ow : stride] += t[:, u, v]
    return dx


def conv2d_grad_params(dy: np.ndarray, x: np.ndarray, kh: int, kw: int, stride: int):
    """Gradients w.r.t. the kernel and bias, given upstream dy."""
    win = _windows(x, kh, kw, stride)
    dw = np.tensordot(dy, win, axes=([1, 2], [1, 2]))
    db = dy.sum(axis=(1, 2))
    return np.ascontiguousarray(dw, dtype=np.float32), np.ascontiguousarray(db, dtype=np.float32)

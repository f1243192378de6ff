"""Pure-NumPy convolution kernels.

Valid padding, square kernels, single sample, channel-first layout.
All arrays are float32 and C-contiguous; callers guarantee both.

Each kernel is the im2col lowering (Chellapilla et al., 2006) or its
adjoint scatter, driven by an index array cached per shape:

- ``conv2d_forward`` gathers the column matrix
  ``cols[(ci,u,v), (p,q)] = x[ci, p*s+u, q*s+v]`` with one ``take`` and
  multiplies ``w.reshape(cout, -1) @ cols`` with one ``np.dot``, then adds
  the bias.
- ``conv2d_grad_params`` gathers the transposed matrix, of shape
  ``(oh*ow, cin*kh*kw)``, and multiplies ``dy.reshape(cout, -1) @ rows``.
- ``conv2d_grad_input`` forms ``t = w.reshape(cout, -1).T @ dy`` with one
  ``np.dot`` and scatters ``t`` into a zeroed ``dx`` with one
  ``np.add.at`` through the same index, in ``(ci, u, v, p, q)`` order.

Summation order. The column matrices have the same values and the same
C layout as the copies ``np.tensordot`` makes of a strided window view
for these contractions, and each ``np.dot`` gets the operands
``tensordot`` would pass it, so every product is the same BLAS call.
``np.add.at`` applies repeated indices in order, so every ``dx`` element
starts at +0.0 and receives its terms in (u, v) order, as a loop of
``dx[:, u::s, v::s] += t[:, u, v]`` over u then v adds them. The results
are therefore bitwise those of the tensordot and strided-loop
formulation. One exception: for some degenerate shapes (1x1 kernels,
kernels as wide as the input) tensordot's reshape of the window view is
itself a strided view, not a copy, and with one output channel NumPy's
matrix-vector product sums in an order that follows that layout; there
the two agree to rounding only.

The index arrays are read-only and shared across threads.
"""

from functools import lru_cache

import numpy as np

# distinct (cin, h, w, k, stride) shapes kept; a zoo uses a handful
_INDEX_CACHE = 64


@lru_cache(maxsize=_INDEX_CACHE)
def _cols_index(cin: int, h: int, w: int, kh: int, kw: int, stride: int) -> np.ndarray:
    """Flat offsets into x of shape (cin*kh*kw, oh*ow), rows in (ci, u, v)
    order and columns in (p, q) order."""
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    ci = np.arange(cin).reshape(cin, 1, 1, 1, 1) * (h * w)
    u = np.arange(kh).reshape(1, kh, 1, 1, 1) * w
    v = np.arange(kw).reshape(1, 1, kw, 1, 1)
    p = np.arange(oh).reshape(1, 1, 1, oh, 1) * (stride * w)
    q = np.arange(ow).reshape(1, 1, 1, 1, ow) * stride
    idx = (ci + u + v + p + q).astype(np.intp).reshape(cin * kh * kw, oh * ow)
    idx.flags.writeable = False
    return idx


@lru_cache(maxsize=_INDEX_CACHE)
def _rows_index(cin: int, h: int, w: int, kh: int, kw: int, stride: int) -> np.ndarray:
    """The transpose of ``_cols_index``, C-contiguous."""
    idx = np.ascontiguousarray(_cols_index(cin, h, w, kh, kw, stride).T)
    idx.flags.writeable = False
    return idx


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int) -> np.ndarray:
    """y[co,p,q] = b[co] + sum_{ci,u,v} x[ci, p*s+u, q*s+v] * w[co,ci,u,v]"""
    cout, cin, kh, kw = w.shape
    _, in_h, in_w = x.shape
    cols = x.reshape(-1).take(_cols_index(cin, in_h, in_w, kh, kw, stride))
    y = np.dot(w.reshape(cout, -1), cols)
    y = y.reshape(cout, (in_h - kh) // stride + 1, (in_w - kw) // stride + 1)
    y += b[:, None, None]
    return y


def conv2d_grad_input(dy: np.ndarray, w: np.ndarray, stride: int, in_h: int, in_w: int) -> np.ndarray:
    """Gradient of the forward output w.r.t. the input, given upstream dy."""
    cout, cin, kh, kw = w.shape
    # t[(ci,u,v), (p,q)] = sum_co w[co,ci,u,v] * dy[co,p,q]
    t = np.dot(w.reshape(cout, -1).T, dy.reshape(cout, -1))
    dx = np.zeros(cin * in_h * in_w, dtype=np.float32)
    np.add.at(dx, _cols_index(cin, in_h, in_w, kh, kw, stride).reshape(-1), t.reshape(-1))
    return dx.reshape(cin, in_h, in_w)


def conv2d_grad_params(dy: np.ndarray, x: np.ndarray, kh: int, kw: int, stride: int):
    """Gradients w.r.t. the kernel and bias, given upstream dy."""
    cout = dy.shape[0]
    cin, in_h, in_w = x.shape
    rows = x.reshape(-1).take(_rows_index(cin, in_h, in_w, kh, kw, stride))
    dw = np.dot(dy.reshape(cout, -1), rows).reshape(cout, cin, kh, kw)
    db = dy.sum(axis=(1, 2))
    return dw, np.ascontiguousarray(db, dtype=np.float32)

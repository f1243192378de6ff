"""Pure-NumPy convolution kernels.

Valid padding, square kernels, channel-first layout. Each op has a
single-sample form and a ``*_batch`` form that takes samples along a
leading axis and equals the single-sample form item by item, bit for bit.
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

The batch forms gather every item's matrix with one ``take`` along the
item axis and multiply with one ``np.matmul``, which makes the same BLAS
call per item that ``np.dot`` makes for one sample. The batched scatter
runs one ``np.add.at`` through the index offset by each item's start, so
every item's ``dx`` receives its terms in the single-sample order. The
parameter gradient has one body: the single-sample form is the batch
form at B = 1. The single-sample forward and input gradient keep their
own bodies, since the PM runs them once per surrogate per step and the
extra batch axis would cost it a few microseconds a call.

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


@lru_cache(maxsize=_INDEX_CACHE)
def _scatter_index(batch: int, cin: int, h: int, w: int, kh: int, kw: int,
                   stride: int) -> np.ndarray:
    """Flat offsets into ``batch`` inputs of shape (cin, h, w), items in
    order: item i's raveled ``_cols_index`` shifted by i*cin*h*w."""
    starts = np.arange(batch, dtype=np.intp).reshape(batch, 1) * (cin * h * w)
    idx = (starts + _cols_index(cin, h, w, kh, kw, stride).reshape(1, -1)).reshape(-1)
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
    """Gradients w.r.t. the kernel and bias, given upstream dy: the batch
    kernel at B = 1."""
    dw, db = conv2d_grad_params_batch(dy[None], x[None], kh, kw, stride)
    return dw[0], db[0]


def conv2d_forward_batch(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int) -> np.ndarray:
    """``conv2d_forward`` of each item of x, shape (B, cin, h, w)."""
    cout, cin, kh, kw = w.shape
    batch, _, in_h, in_w = x.shape
    cols = x.reshape(batch, -1).take(_cols_index(cin, in_h, in_w, kh, kw, stride), axis=1)
    y = np.matmul(w.reshape(cout, -1), cols)
    y = y.reshape(batch, cout, (in_h - kh) // stride + 1, (in_w - kw) // stride + 1)
    y += b[:, None, None]
    return y


def conv2d_grad_input_batch(dy: np.ndarray, w: np.ndarray, stride: int, in_h: int,
                            in_w: int) -> np.ndarray:
    """``conv2d_grad_input`` of each item of dy, shape (B, cout, oh, ow)."""
    cout, cin, kh, kw = w.shape
    batch = dy.shape[0]
    t = np.matmul(w.reshape(cout, -1).T, dy.reshape(batch, cout, -1))
    dx = np.zeros(batch * cin * in_h * in_w, dtype=np.float32)
    np.add.at(dx, _scatter_index(batch, cin, in_h, in_w, kh, kw, stride), t.reshape(-1))
    return dx.reshape(batch, cin, in_h, in_w)


def conv2d_grad_params_batch(dy: np.ndarray, x: np.ndarray, kh: int, kw: int, stride: int):
    """Per-item kernel and bias gradients, shapes (B, cout, cin, kh, kw) and
    (B, cout), given upstream dy of shape (B, cout, oh, ow) and inputs x of
    shape (B, cin, h, w). Summing over the batch is the caller's."""
    batch, cout = dy.shape[:2]
    _, cin, in_h, in_w = x.shape
    rows = x.reshape(batch, -1).take(_rows_index(cin, in_h, in_w, kh, kw, stride), axis=1)
    dw = np.matmul(dy.reshape(batch, cout, -1), rows).reshape(batch, cout, cin, kh, kw)
    return dw, dy.sum(axis=(2, 3))

"""Convolution kernels: the NumPy implementation in ``reference``.

``nn`` calls these through the package attributes, so one place names the
kernels the engine runs. The ``*_batch`` forms take samples along a leading
axis; the single-sample forms keep their names, which the benchmark's
traced run wraps.
"""

from . import reference

BACKEND = "numpy"
conv2d_forward = reference.conv2d_forward
conv2d_grad_input = reference.conv2d_grad_input
conv2d_grad_params = reference.conv2d_grad_params
conv2d_forward_batch = reference.conv2d_forward_batch
conv2d_grad_input_batch = reference.conv2d_grad_input_batch
conv2d_grad_params_batch = reference.conv2d_grad_params_batch

__all__ = [
    "BACKEND",
    "conv2d_forward",
    "conv2d_grad_input",
    "conv2d_grad_params",
    "conv2d_forward_batch",
    "conv2d_grad_input_batch",
    "conv2d_grad_params_batch",
    "reference",
]

"""Convolution kernels: the NumPy implementation in ``reference``.

``nn`` calls these through the package attributes, so one place names the
kernels the engine runs.
"""

from . import reference

BACKEND = "numpy"
conv2d_forward = reference.conv2d_forward
conv2d_grad_input = reference.conv2d_grad_input
conv2d_grad_params = reference.conv2d_grad_params

__all__ = [
    "BACKEND",
    "conv2d_forward",
    "conv2d_grad_input",
    "conv2d_grad_params",
    "reference",
]

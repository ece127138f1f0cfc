"""Tape ops that only the chained-op reference implementations use.

The production tape in ``evidfuse.autodiff`` keeps the ops the model
records (``add``, ``linear``, ``linear_relu``) and the ones ``Tensor``'s
operator methods reach (``sub``, ``mul``, ``div``, ``matmul``).  The
elementwise, reduction and shape ops below are called by name from the
reference evidence, fusion and loss implementations in ``helpers`` and
from the tape's own tests; ``relu(linear(...))`` is the two-node
reference that ``linear_relu`` is checked against.  This module
re-exports the production ones, so a test imports one namespace:
``import tape_ops as ad``.
"""

import numpy as np

from evidfuse.autodiff import (  # noqa: F401  (re-exported)
    Tape,
    Tensor,
    add,
    div,
    linear,
    linear_relu,
    matmul,
    mul,
    sub,
    value_of,
)


def relu(x, mask=None):
    """max(x, 0), times a constant (dropout) mask when one is given."""
    xv = value_of(x)
    v = np.maximum(xv, 0.0)
    if mask is not None:
        v = v * mask
    if not isinstance(x, Tensor):
        return v
    gate = xv > 0.0 if mask is None else mask * (xv > 0.0)
    out = Tensor(v, x.tape)
    out._bwd = lambda g: x._accumulate(g * gate)
    return out


def exp(x):
    if not isinstance(x, Tensor):
        return np.exp(x)
    v = np.exp(x.value)
    out = Tensor(v, x.tape)
    out._bwd = lambda g: x._accumulate(g * v)
    return out


def log(x):
    if not isinstance(x, Tensor):
        return np.log(x)
    out = Tensor(np.log(x.value), x.tape)
    out._bwd = lambda g: x._accumulate(g / x.value)
    return out


def sigmoid(x):
    if not isinstance(x, Tensor):
        return 1.0 / (1.0 + np.exp(-x))
    v = 1.0 / (1.0 + np.exp(-x.value))
    out = Tensor(v, x.tape)
    out._bwd = lambda g: x._accumulate(g * v * (1.0 - v))
    return out


def maximum(x, floor):
    """Elementwise max against a constant; gradient is 0 on the clamped side."""
    if not isinstance(x, Tensor):
        return np.maximum(x, floor)
    v = np.maximum(x.value, floor)
    out = Tensor(v, x.tape)
    out._bwd = lambda g: x._accumulate(g * (x.value > floor))
    return out


def sum_along(x, axis=None, keepdims=False):
    if not isinstance(x, Tensor):
        return np.sum(x, axis=axis, keepdims=keepdims)
    v = np.sum(x.value, axis=axis, keepdims=keepdims)
    out = Tensor(v, x.tape)

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        x._accumulate(np.broadcast_to(g, np.shape(x.value)))

    out._bwd = bwd
    return out


def prod_along(x, axis, keepdims=False):
    """Product along an axis; inputs must be nonzero for the gradient."""
    if not isinstance(x, Tensor):
        return np.prod(x, axis=axis, keepdims=keepdims)
    full = np.prod(x.value, axis=axis, keepdims=True)
    v = full if keepdims else np.squeeze(full, axis=axis)
    out = Tensor(v, x.tape)

    def bwd(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        x._accumulate(g * full / x.value)

    out._bwd = bwd
    return out


def mean_all(x):
    if not isinstance(x, Tensor):
        return np.mean(x)
    n = np.size(x.value)
    return mul(sum_along(x), 1.0 / n)


def reshape(x, shape):
    if not isinstance(x, Tensor):
        return np.reshape(x, shape)
    old_shape = np.shape(x.value)
    out = Tensor(np.reshape(x.value, shape), x.tape)
    out._bwd = lambda g: x._accumulate(np.reshape(g, old_shape))
    return out


def transpose(x):
    if not isinstance(x, Tensor):
        return np.transpose(x)
    if np.ndim(x.value) != 2:
        raise ValueError("taped transpose supports 2-D operands only")
    out = Tensor(x.value.T, x.tape)
    out._bwd = lambda g: x._accumulate(g.T)
    return out

"""Tape ops of the reference implementations in ``helpers``.

``evidfuse.autodiff`` keeps ``Tape``, ``Tensor`` and the ops that
``Tensor``'s operator methods reach (``add``, ``sub``, ``mul``, ``div``,
``matmul``); no production code records on a tape.  The ops below are
called by name: ``linear`` and ``linear_relu`` by the tape step that
``loss_and_grad`` is checked against byte for byte (``helpers``'s taped
encoder forwards), the elementwise, reduction and shape ops by the
chained-op reference evidence, fusion and loss implementations and by
the tape's own tests; ``relu(linear(...))`` is the two-node reference
that ``linear_relu`` is checked against.  This module re-exports the
``evidfuse.autodiff`` names, so a test imports one namespace: ``import
tape_ops as ad``.
"""

import numpy as np

from evidfuse.autodiff import (  # noqa: F401  (re-exported)
    Tape,
    Tensor,
    add,
    div,
    matmul,
    mul,
    sub,
    value_of,
)


def linear(x, w, b):
    """Affine map ``x @ w + b`` of (N, D) rows by (D, K) weights and a
    (K,) bias, as one node; the bias is added in place on the fresh
    ``x @ w`` product, the same IEEE add as ``x @ w + b``."""
    xv, wv, bv = value_of(x), value_of(w), value_of(b)
    v = xv @ wv
    v += bv
    tensors = tuple(t for t in (x, w, b) if isinstance(t, Tensor))
    if not tensors:
        return v
    if np.ndim(xv) != 2 or np.ndim(wv) != 2:
        raise ValueError("taped linear supports 2-D operands only")
    out = Tensor(v, tensors[0].tape)
    out._bwd = _linear_vjp(x, w, b, xv, wv)
    return out


def _linear_vjp(x, w, b, xv, wv):
    """Backward of ``x @ w + b`` into whichever operands are tensors."""
    def bwd(g):
        if isinstance(x, Tensor):
            x._accumulate(g @ wv.T)
        if isinstance(w, Tensor):
            w._accumulate(xv.T @ g)
        if isinstance(b, Tensor):
            b._accumulate(g.sum(axis=0))

    return bwd


def linear_relu(x, w, b, mask=None):
    """ReLU of the affine map ``x @ w + b``, times a constant (dropout)
    mask when one is given, as one node.

    ReLU and mask are applied in place on the fresh affine output, and
    the VJP gates by ``out > 0`` (times the mask): for a mask whose
    nonzero entries are at least 1, as inverted dropout's are, that is
    the gate ``pre > 0`` elementwise, so no pre-activation outlives the
    forward.
    """
    xv, wv, bv = value_of(x), value_of(w), value_of(b)
    v = xv @ wv
    v += bv
    np.maximum(v, 0.0, out=v)
    if mask is not None:
        v *= mask
    tensors = tuple(t for t in (x, w, b) if isinstance(t, Tensor))
    if not tensors:
        return v
    if np.ndim(xv) != 2 or np.ndim(wv) != 2:
        raise ValueError("taped linear_relu supports 2-D operands only")
    out = Tensor(v, tensors[0].tape)
    affine_bwd = _linear_vjp(x, w, b, xv, wv)
    if mask is None:
        out._bwd = lambda g: affine_bwd(g * (v > 0.0))
    else:
        out._bwd = lambda g: affine_bwd(g * (mask * (v > 0.0)))
    return out


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

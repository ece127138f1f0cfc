"""Reverse-mode automatic differentiation over a dynamically recorded tape.

A ``Tape`` records every operation on ``Tensor`` values in execution
order; since a tensor is always created after its inputs, walking the
record backwards is a valid reverse topological order.  The op set is
exactly what the model forward pass needs; everything is float64 numpy
underneath.

Every function in this module also accepts plain numpy arrays (or
scalars) and then computes the same value without recording, so forward
code can be written once and run in taped (training) or plain
(inference) mode.

One tape per training step; tapes are not shared across threads.
"""

import numpy as np


class Tensor:
    """A node on the tape: a value, its gradient slot, and a backward rule."""

    __slots__ = ("value", "grad", "tape", "_parents", "_bwd")

    # keep numpy from hijacking ndarray <op> Tensor expressions
    __array_ufunc__ = None

    def __init__(self, value, tape, parents=(), bwd=None):
        self.value = value
        self.grad = None
        self.tape = tape
        self._parents = parents
        self._bwd = bwd
        tape.nodes.append(self)

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64, copy=True)
        else:
            self.grad += g

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)


class Tape:
    """Execution record for one forward pass."""

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes = []

    def leaf(self, value) -> Tensor:
        return Tensor(np.asarray(value, dtype=np.float64), self)

    def backward(self, output: Tensor):
        """Seed d(output)/d(output) = 1 and sweep the record in reverse."""
        if np.shape(output.value) != ():
            raise ValueError("backward expects a scalar output")
        output._accumulate(1.0)
        for node in reversed(self.nodes):
            if node._bwd is not None and node.grad is not None:
                node._bwd(node.grad)


def value_of(x):
    return x.value if isinstance(x, Tensor) else x


def _unbroadcast(g, shape):
    """Sum a broadcast gradient back down to the parent's shape."""
    if np.shape(g) == shape:
        return g
    extra = np.ndim(g) - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return np.reshape(g, shape)


def _tape_of(a, b=None):
    if isinstance(a, Tensor):
        return a.tape
    if isinstance(b, Tensor):
        return b.tape
    return None


def add(a, b):
    tape = _tape_of(a, b)
    va, vb = value_of(a), value_of(b)
    if tape is None:
        return va + vb
    out = Tensor(va + vb, tape, parents=(a, b))

    def bwd(g):
        if isinstance(a, Tensor):
            a._accumulate(_unbroadcast(g, np.shape(va)))
        if isinstance(b, Tensor):
            b._accumulate(_unbroadcast(g, np.shape(vb)))

    out._bwd = bwd
    return out


def sub(a, b):
    tape = _tape_of(a, b)
    va, vb = value_of(a), value_of(b)
    if tape is None:
        return va - vb
    out = Tensor(va - vb, tape, parents=(a, b))

    def bwd(g):
        if isinstance(a, Tensor):
            a._accumulate(_unbroadcast(g, np.shape(va)))
        if isinstance(b, Tensor):
            b._accumulate(_unbroadcast(-g, np.shape(vb)))

    out._bwd = bwd
    return out


def mul(a, b):
    tape = _tape_of(a, b)
    va, vb = value_of(a), value_of(b)
    if tape is None:
        return va * vb
    out = Tensor(va * vb, tape, parents=(a, b))

    def bwd(g):
        if isinstance(a, Tensor):
            a._accumulate(_unbroadcast(g * vb, np.shape(va)))
        if isinstance(b, Tensor):
            b._accumulate(_unbroadcast(g * va, np.shape(vb)))

    out._bwd = bwd
    return out


def div(a, b):
    tape = _tape_of(a, b)
    va, vb = value_of(a), value_of(b)
    if tape is None:
        return va / vb
    out = Tensor(va / vb, tape, parents=(a, b))

    def bwd(g):
        if isinstance(a, Tensor):
            a._accumulate(_unbroadcast(g / vb, np.shape(va)))
        if isinstance(b, Tensor):
            b._accumulate(_unbroadcast(-g * va / (vb * vb), np.shape(vb)))

    out._bwd = bwd
    return out


def matmul(a, b):
    tape = _tape_of(a, b)
    va, vb = value_of(a), value_of(b)
    if tape is None:
        return va @ vb
    if np.ndim(va) != 2 or np.ndim(vb) != 2:
        raise ValueError("taped matmul supports 2-D operands only")
    out = Tensor(va @ vb, tape, parents=(a, b))

    def bwd(g):
        if isinstance(a, Tensor):
            a._accumulate(g @ vb.T)
        if isinstance(b, Tensor):
            b._accumulate(va.T @ g)

    out._bwd = bwd
    return out


def exp(x):
    if not isinstance(x, Tensor):
        return np.exp(x)
    v = np.exp(x.value)
    out = Tensor(v, x.tape, parents=(x,))
    out._bwd = lambda g: x._accumulate(g * v)
    return out


def log(x):
    if not isinstance(x, Tensor):
        return np.log(x)
    out = Tensor(np.log(x.value), x.tape, parents=(x,))
    out._bwd = lambda g: x._accumulate(g / x.value)
    return out


def sigmoid(x):
    if not isinstance(x, Tensor):
        return 1.0 / (1.0 + np.exp(-x))
    v = 1.0 / (1.0 + np.exp(-x.value))
    out = Tensor(v, x.tape, parents=(x,))
    out._bwd = lambda g: x._accumulate(g * v * (1.0 - v))
    return out


def relu(x):
    if not isinstance(x, Tensor):
        return np.maximum(x, 0.0)
    v = np.maximum(x.value, 0.0)
    out = Tensor(v, x.tape, parents=(x,))
    out._bwd = lambda g: x._accumulate(g * (x.value > 0.0))
    return out


def maximum(x, floor):
    """Elementwise max against a constant; gradient is 0 on the clamped side."""
    if not isinstance(x, Tensor):
        return np.maximum(x, floor)
    v = np.maximum(x.value, floor)
    out = Tensor(v, x.tape, parents=(x,))
    out._bwd = lambda g: x._accumulate(g * (x.value > floor))
    return out


def sum_along(x, axis=None, keepdims=False):
    if not isinstance(x, Tensor):
        return np.sum(x, axis=axis, keepdims=keepdims)
    v = np.sum(x.value, axis=axis, keepdims=keepdims)
    out = Tensor(v, x.tape, parents=(x,))

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
    out = Tensor(v, x.tape, parents=(x,))

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
    out = Tensor(np.reshape(x.value, shape), x.tape, parents=(x,))
    out._bwd = lambda g: x._accumulate(np.reshape(g, old_shape))
    return out


def transpose(x):
    if not isinstance(x, Tensor):
        return np.transpose(x)
    if np.ndim(x.value) != 2:
        raise ValueError("taped transpose supports 2-D operands only")
    out = Tensor(x.value.T, x.tape, parents=(x,))
    out._bwd = lambda g: x._accumulate(g.T)
    return out

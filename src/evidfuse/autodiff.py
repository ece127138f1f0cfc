"""Reverse-mode automatic differentiation over a dynamically recorded tape.

A ``Tape`` records every operation on ``Tensor`` values in execution
order; since a tensor is always created after its inputs, walking the
record backwards is a valid reverse topological order.  Everything is
float64 numpy underneath.

Per-op Python overhead, not arithmetic, bounds a small-batch training
step, so the model records coarse nodes with hand-derived VJPs: one
``linear`` per affine layer, one ``relu`` per activation (dropout mask
included), the residual ``add``, and the fused evidence and objective
nodes built in ``evidential`` and ``model``.  Besides those, only the
ops that ``Tensor``'s operator methods reach stay here; the finer ops
the chained-op references call by name live in ``tests/tape_ops.py``.

Every function in this module also accepts plain numpy arrays (or
scalars) and then computes the same value without recording, so forward
code can be written once and run in taped (training) or plain
(inference) mode.

One tape per training step; tapes are not shared across threads.
"""

import numpy as np


class Tensor:
    """A node on the tape: a value, its gradient slot, and a backward rule."""

    __slots__ = ("value", "grad", "tape", "_bwd")

    # keep numpy from hijacking ndarray <op> Tensor expressions
    __array_ufunc__ = None

    def __init__(self, value, tape, bwd=None):
        self.value = value
        self.grad = None
        self.tape = tape
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
    out = Tensor(va + vb, tape)

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
    out = Tensor(va - vb, tape)

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
    out = Tensor(va * vb, tape)

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
    out = Tensor(va / vb, tape)

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
    out = Tensor(va @ vb, tape)

    def bwd(g):
        if isinstance(a, Tensor):
            a._accumulate(g @ vb.T)
        if isinstance(b, Tensor):
            b._accumulate(va.T @ g)

    out._bwd = bwd
    return out


def linear(x, w, b):
    """Affine map ``x @ w + b`` of (N, D) rows by (D, K) weights and a
    (K,) bias, as one node."""
    xv, wv, bv = value_of(x), value_of(w), value_of(b)
    v = xv @ wv + bv
    tensors = tuple(t for t in (x, w, b) if isinstance(t, Tensor))
    if not tensors:
        return v
    if np.ndim(xv) != 2 or np.ndim(wv) != 2:
        raise ValueError("taped linear supports 2-D operands only")
    out = Tensor(v, tensors[0].tape)

    def bwd(g):
        if isinstance(x, Tensor):
            x._accumulate(g @ wv.T)
        if isinstance(w, Tensor):
            w._accumulate(xv.T @ g)
        if isinstance(b, Tensor):
            b._accumulate(g.sum(axis=0))

    out._bwd = bwd
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

"""Per-source feature encoders and auxiliary logit heads.

Three encoder families: a 3-layer MLP and a 3-block residual net for
structured features, and a single trainable hidden layer over frozen
precomputed text embeddings.  Each produces the 32-dim representation
consumed by the evidential layer (the residual blocks run at that
width).  Parameters are plain name->array dicts; each component's
``shapes()`` gives their names and shapes from its dimensions, in the
order the initializers draw them, and ``load_checkpoint`` checks a
loaded component against it.

Each encoder has one forward, ``forward(x, masks=None, out=None) ->
(z, cache)``.  ``masks`` are a training step's dropout masks, sampled
up front at the encoder's ``dropout`` rate and applied as constants
(inverted scaling, so the eval path needs no rescaling); a training run
draws every encoder's masks for a step at once (``DropoutMasks``).
``out`` holds one (N, width) array per layer output, in the order of
``layer_widths``: a training step passes the ones its workspace keeps,
and without them each layer's output is fresh.  ``cache`` holds the
layer inputs and outputs that ``backward(cache, g_z, grads)`` reads: it adds each
parameter's gradient into ``grads[name]``, a zeroed view of the
training step's flat gradient vector, and returns nothing, since an
encoder's input is data.  Eval callers drop the cache.  An ``AuxHead``
is one affine map.  A group of G sources' heads run as one stacked
kernel on the group's (G, N, D) encoder outputs (``aux_forward``,
``aux_backward``; the eval pass runs a group of one), whose every slice
has the bits of the 2-D map and its backward; ``aux_backward`` also
returns the gradient of its input, which the model adds to the encoder
output's evidence gradient.

A hidden layer is the affine map, ReLU and dropout mask, applied in
place on the ``x @ w`` product (adding the bias in place is the same
IEEE add as ``x @ w + b``).  Its backward gates by ``out > 0``
(times the mask): for a mask whose nonzero entries are at least 1, as
inverted dropout's are, that is the gate ``pre > 0`` elementwise, so no
pre-activation outlives the forward.  The backward passes do the
arithmetic of the tape step that the tests keep as the reference, in
its order, so the gradients have its bits: a ResNet block input's
gradient is the residual gradient, then plus the inner branch's.

An eval-mode pass over a whole split (``encode_blocks``) runs
``forward`` in row blocks of at most ``ENCODE_BLOCK_ROWS`` rows and
writes each block into one preallocated (N, output_dim) array, so no
(N, hidden) layer is ever whole.  It keeps the bits of one whole-split
``forward`` because a row's product does not depend on the rows beside
it once a block is large enough for OpenBLAS's blocked kernels: a 1-row
product takes its gemv path, and at hidden width 512 blocks of 2 to 128
rows changed the output's bits where blocks of 256 to 4096 rows did not.
So a split of more than ``ENCODE_BLOCK_ROWS`` rows is cut into blocks of
nearly equal size, none smaller than half the constant, and a smaller
split runs as one block: there is never a 1-row block unless the split
has exactly one row.  ``encode_blocks`` trusts its rows: the model
checks them where they enter it.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError

ENCODER_OUTPUT_DIM = 32
ENCODER_HIDDEN_DIM = 32
TEXT_HIDDEN_DIM = 128
DEFAULT_DROPOUT = 0.1
ENCODE_BLOCK_ROWS = 2048


def _affine(x, w, b, out=None):
    """``x @ w + b`` in ``out`` (fresh when None), the bias added in place
    on the product."""
    v = np.matmul(x, w, out=out)
    v += b
    return v


def _hidden(x, w, b, mask, out=None):
    """ReLU of ``x @ w + b``, times the dropout mask when one is given."""
    v = _affine(x, w, b, out)
    np.maximum(v, 0.0, out=v)
    if mask is not None:
        v *= mask
    return v


def _hidden_gate(g, out, mask):
    """The gradient of a hidden layer's affine map from that of its output."""
    return g * (out > 0.0) if mask is None else g * (mask * (out > 0.0))


def _affine_backward(x, g, grad_w, grad_b):
    """Adds the gradients of ``w`` and ``b`` in ``x @ w + b`` into their slots."""
    grad_w += x.T @ g
    grad_b += np.add.reduce(g, axis=0)


@dataclass(frozen=True, eq=False)
class MlpEncoder:
    """Three fully connected layers, ReLU hidden activations."""

    params: dict
    input_dim: int
    hidden_dim: int = ENCODER_HIDDEN_DIM
    output_dim: int = ENCODER_OUTPUT_DIM
    dropout: float = DEFAULT_DROPOUT

    kind = "mlp"

    def shapes(self):
        return {"w0": (self.input_dim, self.hidden_dim), "b0": (self.hidden_dim,),
                "w1": (self.hidden_dim, self.hidden_dim), "b1": (self.hidden_dim,),
                "w2": (self.hidden_dim, self.output_dim), "b2": (self.output_dim,)}

    def dropout_shapes(self, n):
        return [(n, self.hidden_dim), (n, self.hidden_dim)]

    def forward(self, x, masks=None, out=None):
        p = self.params
        masks = masks or (None, None)
        out = out or (None,) * 3
        h1 = _hidden(x, p["w0"], p["b0"], masks[0], out[0])
        h2 = _hidden(h1, p["w1"], p["b1"], masks[1], out[1])
        return _affine(h2, p["w2"], p["b2"], out[2]), (x, h1, h2, masks)

    def backward(self, cache, g, grads):
        x, h1, h2, masks = cache
        p = self.params
        _affine_backward(h2, g, grads["w2"], grads["b2"])
        g = _hidden_gate(g @ p["w2"].T, h2, masks[1])
        _affine_backward(h1, g, grads["w1"], grads["b1"])
        g = _hidden_gate(g @ p["w1"].T, h1, masks[0])
        _affine_backward(x, g, grads["w0"], grads["b0"])


@dataclass(frozen=True, eq=False)
class ResNetEncoder:
    """Input projection followed by three residual blocks at width 32."""

    params: dict
    input_dim: int
    hidden_dim: int = ENCODER_HIDDEN_DIM
    output_dim: int = ENCODER_OUTPUT_DIM
    dropout: float = DEFAULT_DROPOUT
    n_blocks: int = 3

    kind = "resnet"

    def shapes(self):
        width = self.output_dim
        out = {"w_in": (self.input_dim, width), "b_in": (width,)}
        for k in range(self.n_blocks):
            out.update({f"block{k}.w1": (width, width), f"block{k}.b1": (width,),
                        f"block{k}.w2": (width, width), f"block{k}.b2": (width,)})
        return out

    def dropout_shapes(self, n):
        return [(n, self.hidden_dim)] * self.n_blocks

    def forward(self, x, masks=None, out=None):
        p = self.params
        masks = masks or (None,) * self.n_blocks
        out = out or (None,) * (1 + 2 * self.n_blocks)
        h = _affine(x, p["w_in"], p["b_in"], out[0])
        block_inputs, inners = [], []
        for k in range(self.n_blocks):
            inner = _hidden(h, p[f"block{k}.w1"], p[f"block{k}.b1"], masks[k], out[1 + 2 * k])
            branch = _affine(inner, p[f"block{k}.w2"], p[f"block{k}.b2"], out[2 + 2 * k])
            block_inputs.append(h)
            inners.append(inner)
            h = np.add(h, branch, out=branch)
        return h, (x, block_inputs, inners, masks)

    def backward(self, cache, g, grads):
        x, block_inputs, inners, masks = cache
        p = self.params
        for k in reversed(range(self.n_blocks)):
            _affine_backward(inners[k], g, grads[f"block{k}.w2"], grads[f"block{k}.b2"])
            g_inner = _hidden_gate(g @ p[f"block{k}.w2"].T, inners[k], masks[k])
            _affine_backward(block_inputs[k], g_inner, grads[f"block{k}.w1"],
                             grads[f"block{k}.b1"])
            # the block input: the residual gradient, then the inner branch's
            g = g + g_inner @ p[f"block{k}.w1"].T
        _affine_backward(x, g, grads["w_in"], grads["b_in"])


@dataclass(frozen=True, eq=False)
class TextHeadEncoder:
    """One trainable hidden layer over a frozen embedding, then projection.

    The embedding itself is produced upstream and never updated here;
    only the head weights are trainable.
    """

    params: dict
    input_dim: int
    hidden_dim: int = TEXT_HIDDEN_DIM
    output_dim: int = ENCODER_OUTPUT_DIM
    dropout: float = 0.0

    kind = "text-head"

    def shapes(self):
        return {"w0": (self.input_dim, self.hidden_dim), "b0": (self.hidden_dim,),
                "w1": (self.hidden_dim, self.output_dim), "b1": (self.output_dim,)}

    def dropout_shapes(self, n):
        return []

    def forward(self, x, masks=None, out=None):
        p = self.params
        out = out or (None, None)
        h = _hidden(x, p["w0"], p["b0"], None, out[0])
        return _affine(h, p["w1"], p["b1"], out[1]), (x, h)

    def backward(self, cache, g, grads):
        x, h = cache
        _affine_backward(h, g, grads["w1"], grads["b1"])
        g = _hidden_gate(g @ self.params["w1"].T, h, None)
        _affine_backward(x, g, grads["w0"], grads["b0"])


@dataclass(frozen=True, eq=False)
class AuxHead:
    """Single affine map from encoder output to per-class logits; a
    group of sources' heads run as one (``aux_forward``, ``aux_backward``)."""

    params: dict
    input_dim: int
    n_classes: int

    def shapes(self):
        return {"w": (self.input_dim, self.n_classes), "b": (self.n_classes,)}


AUX_KEYS = ("w", "b")


def aux_forward(z, w, b):
    """A group of G sources' aux logits (G, N, M) from their encoder
    outputs ``z`` (G, N, D), weights ``w`` (G, D, M) and biases ``b``
    (G, M): each slice is ``z[k] @ w[k] + b[k]``, the bias added in place
    on the product."""
    v = np.matmul(z, w)
    v += b[:, None, :]
    return v


def aux_backward(z, g, w, grad_w, grad_b):
    """Adds the gradients of ``w`` and ``b`` in ``aux_forward`` into their
    (G, ...) slots; returns the gradient of ``z``."""
    grad_w += np.matmul(z.transpose(0, 2, 1), g)
    grad_b += np.add.reduce(g, axis=1)
    return np.matmul(g, w.transpose(0, 2, 1))


def layer_widths(encoder):
    """The width of each layer's output, in forward order: the column
    counts of its weights, which ``shapes()`` lists in that order."""
    return [shape[1] for shape in encoder.shapes().values() if len(shape) == 2]


def _initialized(component, rng):
    """``component`` with He-normal weights and zero biases, the weights
    drawn in the order of its ``shapes()``."""
    params = {name: rng.normal(size=shape) * np.sqrt(2.0 / shape[0]) if len(shape) == 2
              else np.zeros(shape)
              for name, shape in component.shapes().items()}
    return replace(component, params=params)


def init_mlp(input_dim, rng, hidden_dim=ENCODER_HIDDEN_DIM,
             output_dim=ENCODER_OUTPUT_DIM) -> MlpEncoder:
    return _initialized(MlpEncoder({}, input_dim, hidden_dim, output_dim), rng)


def init_resnet(input_dim, rng, output_dim=ENCODER_OUTPUT_DIM) -> ResNetEncoder:
    return _initialized(ResNetEncoder({}, input_dim, output_dim, output_dim), rng)


def init_text_head(input_dim, rng, hidden_dim=TEXT_HIDDEN_DIM,
                   output_dim=ENCODER_OUTPUT_DIM) -> TextHeadEncoder:
    return _initialized(TextHeadEncoder({}, input_dim, hidden_dim, output_dim), rng)


def init_aux_head(input_dim, n_classes, rng) -> AuxHead:
    return _initialized(AuxHead({}, input_dim, n_classes), rng)


ENCODER_KINDS = {"mlp": init_mlp, "resnet": init_resnet, "text-head": init_text_head}


def init_encoder(kind: str, input_dim: int, rng, **overrides):
    if kind not in ENCODER_KINDS:
        raise DataError(f"unknown encoder kind {kind!r}; expected one of {sorted(ENCODER_KINDS)}")
    return ENCODER_KINDS[kind](input_dim, rng, **overrides)


class DropoutMasks:
    """Inverted-scaling dropout masks for the steps of one training run,
    drawn into storage that every step reuses.

    ``DropoutMasks(encoders, n)`` sizes the storage for n rows, the most
    any step may have.  ``draw(n, rng)`` gives each encoder's masks for an
    n-row step (``dropout_shapes``), views of that storage: one
    ``rng.random(out=...)`` fills the masks of every encoder with a
    positive rate, in encoder and mask order, so it takes the numbers that
    one draw per mask would; each run of encoders of one rate is compared
    against it into a bool buffer and divided by the keep rate back into
    the storage.  An encoder whose rate is 0 draws nothing and gets
    masks of ones.  A row count's views are built once, so the ragged
    last batch of an epoch reuses the storage of the full ones; each draw
    overwrites the masks of the one before.
    """

    def __init__(self, encoders, n: int):
        self._encoders = list(encoders)
        size = sum(math.prod(shape) for enc in self._encoders if enc.dropout > 0.0
                   for shape in enc.dropout_shapes(n))
        self._values, self._hits = np.empty(size), np.empty(size, dtype=bool)
        self._steps = {}

    def draw(self, n: int, rng) -> list:
        step = self._steps.get(n)
        if step is None:
            step = self._steps[n] = self._views(n)
        masks, drawn, runs = step
        rng.random(out=drawn)
        for rate, values, hits in runs:
            np.greater_equal(values, rate, out=hits)
            np.divide(hits, 1.0 - rate, out=values)
        return masks

    def _views(self, n):
        """Each encoder's masks for n rows, the drawn prefix of the storage
        and, per run of encoders of one rate, the rate and the run's part
        of the storage and of the bool buffer."""
        masks, runs, offset = [], [], 0
        for enc in self._encoders:
            shapes = enc.dropout_shapes(n)
            if enc.dropout <= 0.0:
                masks.append([np.ones(shape) for shape in shapes])
                continue
            start = offset
            masks.append([])
            for shape in shapes:
                size = math.prod(shape)
                masks[-1].append(self._values[offset:offset + size].reshape(shape))
                offset += size
            if runs and runs[-1][0] == enc.dropout:
                runs[-1][2] = offset
            else:
                runs.append([enc.dropout, start, offset])
        return masks, self._values[:offset], [(rate, self._values[lo:hi], self._hits[lo:hi])
                                              for rate, lo, hi in runs]


def row_blocks(n: int):
    """(lo, hi) bounds of the fewest blocks of at most
    ``ENCODE_BLOCK_ROWS`` rows that cover n rows, their sizes differing
    by at most one (one block when n <= ``ENCODE_BLOCK_ROWS``)."""
    k = max(1, -(-n // ENCODE_BLOCK_ROWS))
    bounds = [i * n // k for i in range(k + 1)]
    return zip(bounds[:-1], bounds[1:])


def encode_blocks(encoder, x):
    """Eval-mode encoding of checked (N, input_dim) float64 rows, in row
    blocks."""
    out = np.empty((len(x), encoder.output_dim))
    for lo, hi in row_blocks(len(x)):
        out[lo:hi] = encoder.forward(x[lo:hi])[0]
    return out

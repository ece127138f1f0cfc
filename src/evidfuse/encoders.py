"""Per-source feature encoders and auxiliary logit heads.

Three encoder families: a 3-layer MLP and a 3-block residual net for
structured features, and a single trainable hidden layer over frozen
precomputed text embeddings.  Each produces the 32-dim representation
consumed by the evidential layer (the residual blocks run at that
width).  Parameters are plain name->array dicts so the training tape can
substitute leaf tensors; dropout masks are sampled up front at the
encoder's ``dropout`` rate and applied as constants (inverted scaling,
so the eval path needs no rescaling).  ``encode`` takes (N, D) rows.

On the training tape each affine layer is one ``autodiff.linear`` node
and each activation one ``autodiff.relu`` node that also applies its
dropout mask: an MLP records 5 nodes, a text head 3, an aux head 1 and
a residual net 1 plus 4 per block (two linears, a ReLU and the
residual add).
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import DataError

ENCODER_OUTPUT_DIM = 32
ENCODER_HIDDEN_DIM = 32
TEXT_HIDDEN_DIM = 128
DEFAULT_DROPOUT = 0.1


def _he_linear(rng, fan_in, fan_out):
    w = rng.normal(size=(fan_in, fan_out)) * np.sqrt(2.0 / fan_in)
    return w, np.zeros(fan_out)


@dataclass(frozen=True, eq=False)
class MlpEncoder:
    """Three fully connected layers, ReLU hidden activations."""

    params: dict
    input_dim: int
    hidden_dim: int = ENCODER_HIDDEN_DIM
    output_dim: int = ENCODER_OUTPUT_DIM
    dropout: float = DEFAULT_DROPOUT

    kind = "mlp"

    def dropout_shapes(self, n):
        return [(n, self.hidden_dim), (n, self.hidden_dim)]

    def forward(self, x, params=None, masks=None):
        p = self.params if params is None else params
        masks = masks or (None, None)
        h = ad.relu(ad.linear(x, p["w0"], p["b0"]), masks[0])
        h = ad.relu(ad.linear(h, p["w1"], p["b1"]), masks[1])
        return ad.linear(h, p["w2"], p["b2"])


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

    def dropout_shapes(self, n):
        return [(n, self.hidden_dim)] * self.n_blocks

    def forward(self, x, params=None, masks=None):
        p = self.params if params is None else params
        masks = masks or (None,) * self.n_blocks
        h = ad.linear(x, p["w_in"], p["b_in"])
        for k in range(self.n_blocks):
            inner = ad.relu(ad.linear(h, p[f"block{k}.w1"], p[f"block{k}.b1"]), masks[k])
            h = h + ad.linear(inner, p[f"block{k}.w2"], p[f"block{k}.b2"])
        return h


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

    def dropout_shapes(self, n):
        return []

    def forward(self, x, params=None, masks=None):
        p = self.params if params is None else params
        h = ad.relu(ad.linear(x, p["w0"], p["b0"]))
        return ad.linear(h, p["w1"], p["b1"])


@dataclass(frozen=True, eq=False)
class AuxHead:
    """Single affine map from encoder output to per-class logits."""

    params: dict
    input_dim: int
    n_classes: int

    def forward(self, z, params=None):
        p = self.params if params is None else params
        return ad.linear(z, p["w"], p["b"])


def init_mlp(input_dim, rng, hidden_dim=ENCODER_HIDDEN_DIM,
             output_dim=ENCODER_OUTPUT_DIM) -> MlpEncoder:
    w0, b0 = _he_linear(rng, input_dim, hidden_dim)
    w1, b1 = _he_linear(rng, hidden_dim, hidden_dim)
    w2, b2 = _he_linear(rng, hidden_dim, output_dim)
    return MlpEncoder(
        params={"w0": w0, "b0": b0, "w1": w1, "b1": b1, "w2": w2, "b2": b2},
        input_dim=input_dim, hidden_dim=hidden_dim, output_dim=output_dim,
    )


def init_resnet(input_dim, rng, output_dim=ENCODER_OUTPUT_DIM) -> ResNetEncoder:
    params = {}
    params["w_in"], params["b_in"] = _he_linear(rng, input_dim, output_dim)
    for k in range(ResNetEncoder.n_blocks):
        params[f"block{k}.w1"], params[f"block{k}.b1"] = _he_linear(rng, output_dim, output_dim)
        params[f"block{k}.w2"], params[f"block{k}.b2"] = _he_linear(rng, output_dim, output_dim)
    return ResNetEncoder(params=params, input_dim=input_dim, hidden_dim=output_dim,
                         output_dim=output_dim)


def init_text_head(input_dim, rng, hidden_dim=TEXT_HIDDEN_DIM,
                   output_dim=ENCODER_OUTPUT_DIM) -> TextHeadEncoder:
    w0, b0 = _he_linear(rng, input_dim, hidden_dim)
    w1, b1 = _he_linear(rng, hidden_dim, output_dim)
    return TextHeadEncoder(params={"w0": w0, "b0": b0, "w1": w1, "b1": b1},
                           input_dim=input_dim, hidden_dim=hidden_dim,
                           output_dim=output_dim)


def init_aux_head(input_dim, n_classes, rng) -> AuxHead:
    w, b = _he_linear(rng, input_dim, n_classes)
    return AuxHead(params={"w": w, "b": b}, input_dim=input_dim, n_classes=n_classes)


ENCODER_KINDS = {"mlp": init_mlp, "resnet": init_resnet, "text-head": init_text_head}


def init_encoder(kind: str, input_dim: int, rng, **overrides):
    if kind not in ENCODER_KINDS:
        raise DataError(f"unknown encoder kind {kind!r}; expected one of {sorted(ENCODER_KINDS)}")
    return ENCODER_KINDS[kind](input_dim, rng, **overrides)


def sample_dropout_masks(encoder, n: int, rng) -> list:
    """Inverted-scaling dropout masks at the encoder's rate for one step."""
    rate = encoder.dropout
    if rate <= 0.0:
        return [np.ones(shape) for shape in encoder.dropout_shapes(n)]
    keep = 1.0 - rate
    return [
        (rng.random(shape) >= rate).astype(np.float64) / keep
        for shape in encoder.dropout_shapes(n)
    ]


def encode(encoder, x):
    """Eval-mode encoding of an (N, input_dim) batch of rows."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != encoder.input_dim:
        raise DataError(f"{encoder.kind}: input shape {x.shape} does not match dim "
                        f"{encoder.input_dim}")
    if not np.all(np.isfinite(x)):
        raise DataError(f"{encoder.kind}: non-finite input")
    return encoder.forward(x)

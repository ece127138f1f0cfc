"""Multi-source fusion model: encoders, evidential layers, Dempster
fusion, the class-weighted training objective, and the training loop.

Each evidence source owns an encoder, an evidential layer, and an
auxiliary logit head.  There is one forward path and it is batched: it
encodes every source, and ``evidential.fuse_evidence`` fuses all
sources' prototype evidence in the log-commonality domain and returns
pignistic probabilities.  Training, ``predict_probs`` and
``predict_batch`` all run it; ``predict_batch`` adds the fused and
per-source masses and the pairwise source conflict as one struct of
arrays.  The exact per-sample mass algebra they are checked against
lives in the tests.

Outside a training step (``predict_probs``, ``predict_batch``, the
per-epoch validation loss, and ``init_model``'s encoding of the training
rows) the encoders run in ``encoders.ENCODE_BLOCK_ROWS``-row blocks, so
memory does not grow with rows times hidden width.  The blocks keep the
bits of a whole-split forward (see ``encoders``).  Everything from the
distance product ``z @ p.T`` on (evidence, fusion, auxiliary logits,
loss) stays whole-split: that product's bits depend on its row count, so
blocking it would change them.  A training step runs each encoder on its
whole batch.

Input rows are checked once, where they enter: ``init_model``,
``train`` (each split), ``predict_probs`` and ``predict_batch`` run
``_check_inputs`` on them, and every pass inside (``batch_internals``,
``loss_overall``, ``loss_and_grad``, the encoders and the evidential
layer) trusts the float64 arrays it returns, so no training step or
validation epoch checks them again.

The objective is the class-weighted log loss on the fused probabilities
plus per-source class-weighted cross-entropies on the auxiliary logits,
each scaled by the source's auxiliary weight.  A training step
(``loss_and_grad``) records nothing: its forward keeps what the backward
reads (each encoder's cache, each source's evidence), and the backward
runs hand-derived VJPs, the objective's, the fusion's
(``evidential.fusion_vjp``) and each source's (``_source_vjp``, then its
aux head's and its encoder's ``backward``).  Nothing in it refers back
to itself, so reference counting frees the step when it returns and the
cyclic collector has nothing to do.  Training runs mini-batch Adam with
early stopping on the validation overall loss, restoring the
best-validation parameters.

Parameters travel as name->array dicts.  ``FlatParams`` is their one
flat layout: during training they and their gradients live in two flat
vectors, built once per ``train``; each component's ``backward`` adds
its gradients into its views of the gradient vector, so an Adam step is
a single vectorized update of the parameter vector, with no per-step
gradient dict and no flattening.  ``train`` also builds, once, a model
whose arrays are views into the parameter vector; every step and the
per-epoch validation loss run on it, so they see every update.

The same ``FlatParams`` carries the run's ``Workspace``, made once per
``train`` call for its batch size and reused, through views, by the
ragged last batch: each source's encoder layer outputs and three (N, H)
evidential arrays, and one (M, N, H) term array that every source's
forward and VJP share.  A step that allocated them afresh would hand
them all back to the allocator at its end, which trims the heap and
faults the pages in again on the next step.  A pass outside training
gets fresh arrays but keeps only each source's log-commonalities, so
one source's (N, H) arrays are freed before the next source's are made
and the pass's memory does not grow with the number of sources.

A checkpoint is one JSON document.  ``save_checkpoint`` writes format
version 2, where each parameter array is ``{"shape", "f8"}``, the base64
of its little-endian float64 bytes, so saving and loading neither print
nor parse a decimal and a load gets back the saved bits.
``load_checkpoint`` also reads version 1, whose arrays are nested lists;
the format version picks the array decoder and every check after it
(each component against the layout its dimensions imply, finite values,
prototype width, finite positive class weights) is shared.
"""

import base64
import binascii
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import data
# Tape is used by no code here: the benchmark's tracer and smoke test look
# up evidfuse.model.Tape (ROADMAP item 1)
from .autodiff import Tape  # noqa: F401
from .encoders import (
    AuxHead,
    MlpEncoder,
    ResNetEncoder,
    TextHeadEncoder,
    encode_blocks,
    init_aux_head,
    init_encoder,
    layer_widths,
    sample_dropout_masks,
)
from .errors import ConfigError, DataError, EvidFuseError, TrainingDivergedError
from .evidential import (EnnParams, EvidenceBuffers, _source_vjp, evidence_batch, fuse_evidence,
                         fusion_vjp, init_enn)
from .rng import substream

PROB_FLOOR = 1e-12
CHECKPOINT_VERSION = 2
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class SourceSpec:
    """One evidence source: where its input comes from and how it is encoded."""

    name: str
    encoder_kind: str                 # mlp | resnet | text-head
    aux_weight: float
    feature_names: tuple | None = None  # structured columns; None = embedding input

    def __post_init__(self):
        data.require_nonnegative(f"source {self.name!r}: aux weight", self.aux_weight)
        if self.feature_names is not None:
            object.__setattr__(self, "feature_names", tuple(self.feature_names))


@dataclass(eq=False)
class FusionSource:
    spec: SourceSpec
    encoder: object
    enn: EnnParams
    aux: AuxHead


@dataclass(frozen=True)
class Frame:
    """Finite set of mutually exclusive class hypotheses."""

    labels: tuple

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        object.__setattr__(self, "labels", labels)
        if len(labels) < 2:
            raise DataError(f"frame needs at least 2 classes, got {len(labels)}")
        if len(set(labels)) != len(labels):
            raise DataError(f"frame labels must be unique: {labels}")

    @property
    def m(self) -> int:
        return len(self.labels)


@dataclass(eq=False)
class FusionModel:
    frame: Frame
    sources: list
    class_weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.class_weights, dtype=np.float64)
        if w.shape != (self.frame.m,) or not np.all(np.isfinite(w) & (w > 0)):
            raise ConfigError("class weights must be finite and positive, one per class")
        names = [s.spec.name for s in self.sources]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate source names: {names}")
        for s in self.sources:
            if s.enn.m != self.frame.m:
                raise ConfigError(f"source {s.spec.name!r} evidential layer has wrong class count")
        object.__setattr__(self, "class_weights", w)


@dataclass(frozen=True, eq=False)
class Predictions:
    """Eval-mode predictions of N samples and what explains them.

    Axis 0 of every field indexes samples, so ``preds[i]`` (any numpy
    index) selects the same samples from each field.
    """

    probs: np.ndarray              # (N, M) pignistic probabilities
    singletons: np.ndarray         # (N, M) fused singleton masses
    ignorance: np.ndarray          # (N,) fused mass on the whole frame
    source_singletons: np.ndarray  # (N, K, M) per-source singleton masses
    source_ignorance: np.ndarray   # (N, K) per-source ignorance
    conflict: np.ndarray           # (N, K, K) pairwise degree of conflict

    @property
    def predicted_class(self):
        """Most probable class; ties go to the lowest index."""
        return np.argmax(self.probs, axis=-1)

    def __len__(self):
        return len(self.probs)

    def __getitem__(self, index):
        return Predictions(*(getattr(self, f.name)[index] for f in fields(self)))


# ---------------------------------------------------------------------------
# parameter plumbing

def param_dict(model: FusionModel) -> dict:
    """Every trainable scalar array under a stable dotted name."""
    out = {}
    for i, src in enumerate(model.sources):
        for key in sorted(src.encoder.params):
            out[f"src{i}.encoder.{key}"] = src.encoder.params[key]
        for key, arr in src.enn.as_param_dict().items():
            out[f"src{i}.enn.{key}"] = arr
        for key in sorted(src.aux.params):
            out[f"src{i}.aux.{key}"] = src.aux.params[key]
    return out


def with_params(model: FusionModel, params: dict) -> FusionModel:
    """Rebuild the model around a replacement parameter dict."""
    sources = []
    for i, src in enumerate(model.sources):
        enc_params = {k: np.asarray(params[f"src{i}.encoder.{k}"]) for k in src.encoder.params}
        enn = EnnParams.from_param_dict(
            {k: np.asarray(params[f"src{i}.enn.{k}"]) for k in src.enn.as_param_dict()}
        )
        aux_params = {k: np.asarray(params[f"src{i}.aux.{k}"]) for k in src.aux.params}
        sources.append(FusionSource(src.spec, replace(src.encoder, params=enc_params), enn,
                                    replace(src.aux, params=aux_params)))
    return FusionModel(model.frame, sources, model.class_weights)


class Workspace:
    """The arrays that the training steps on one ``FlatParams`` reuse; a
    ``train`` call makes one.

    ``grad_model(model)`` is the model's layout over the gradient vector:
    a ``FusionModel`` whose arrays are the ``grads`` views, so each
    component's ``backward`` adds into its own slots.  ``buffers(model,
    n)`` gives each source's arrays for an n-row step: the (n, width)
    output of each encoder layer (``encoders.layer_widths``), and an
    ``EvidenceBuffers`` of three (n, H) arrays of its own and a view of
    one (M, n, H) term array that every source's forward and VJP share.
    The storage is sized for the largest step so far, and a row count's
    views are built once, so the ragged last batch of an epoch reuses
    the storage of the full ones.  Both serve the model layout of the
    first call.
    """

    def __init__(self, grads: dict):
        self._grads = grads
        self._grad_model = None
        self._rows = 0
        self._storage = None
        self._views = {}

    def grad_model(self, model):
        if self._grad_model is None:
            self._grad_model = with_params(model, self._grads)
        return self._grad_model

    def buffers(self, model, n: int) -> list:
        views = self._views.get(n)
        if views is None:
            widths = [layer_widths(src.encoder) for src in model.sources]
            shapes = [src.enn.membership_raw.shape for src in model.sources]   # (H, M)
            if n > self._rows:
                self._rows = n
                self._storage = ([[np.empty(n * w) for w in ws] for ws in widths],
                                 [[np.empty(n * h) for _ in range(3)] for h, _ in shapes],
                                 np.empty(n * max(h * m for h, m in shapes)))
                self._views.clear()
            layers, evidence, terms = self._storage
            views = self._views[n] = [
                ([a[:n * w].reshape(n, w) for a, w in zip(arrays, ws)],
                 EvidenceBuffers(*(a[:n * h].reshape(n, h) for a in own),
                                 terms[:m * n * h].reshape(m, n, h)))
                for ws, arrays, own, (h, m) in zip(widths, layers, evidence, shapes)]
        return views




@dataclass(frozen=True, eq=False)
class FlatParams:
    """A model's parameters and their gradients as two flat vectors, laid
    out in ``param_dict`` order, and the workspace of the training steps
    that write that gradient.

    ``params`` and ``grads`` are named views into ``flat`` and ``grad``:
    an Adam step updates ``flat`` in place, and a training step adds each
    parameter's gradient into its ``grads`` view.
    """

    shapes: dict                      # name -> shape, in layout order
    flat: np.ndarray
    grad: np.ndarray
    params: dict = field(init=False)
    grads: dict = field(init=False)
    workspace: Workspace = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "params", self.views(self.flat))
        object.__setattr__(self, "grads", self.views(self.grad))
        object.__setattr__(self, "workspace", Workspace(self.grads))

    @staticmethod
    def from_model(model: FusionModel) -> "FlatParams":
        params = param_dict(model)
        flat = np.concatenate([np.asarray(v, dtype=np.float64).reshape(-1)
                               for v in params.values()])
        return FlatParams({k: np.shape(v) for k, v in params.items()}, flat,
                          np.zeros(flat.size))

    def views(self, vec: np.ndarray) -> dict:
        """Named arrays of this layout that share memory with ``vec``."""
        out, offset = {}, 0
        for name, shape in self.shapes.items():
            size = int(np.prod(shape))
            out[name] = vec[offset:offset + size].reshape(shape)
            offset += size
        return out


# ---------------------------------------------------------------------------
# forward passes

def _check_inputs(specs, inputs, widths=None):
    """The input blocks as float64 arrays, checked where they enter the
    model: one (N, D) block per source spec, D = ``widths[i]`` when given,
    the same N in every block and every value finite."""
    if len(inputs) != len(specs):
        raise DataError(f"{len(specs)} source specs for {len(inputs)} input blocks")
    mats = []
    for i, (spec, x) in enumerate(zip(specs, inputs)):
        x = np.asarray(x, dtype=np.float64)
        width = "D" if widths is None else widths[i]
        if x.ndim != 2 or (widths is not None and x.shape[1] != width):
            raise DataError(f"source {spec.name!r} expects (N, {width}) inputs, got {x.shape}")
        if not np.all(np.isfinite(x)):
            raise DataError(f"source {spec.name!r}: non-finite input")
        if mats and len(x) != len(mats[0]):
            raise DataError("per-source input blocks disagree on batch size")
        mats.append(x)
    return mats


def _model_inputs(model, inputs):
    return _check_inputs([s.spec for s in model.sources], inputs,
                         [s.encoder.input_dim for s in model.sources])


def _check_labels(inputs, labels):
    if {len(x) for x in inputs} != {len(labels)}:
        raise DataError(f"{len(labels)} labels for input blocks of "
                        f"{sorted({len(x) for x in inputs})} rows")


def batch_internals(model, inputs, masks=None, buffers=None, caches=None):
    """Fused evidence (``fused.probs`` included) and per-source aux logits.

    ``inputs`` are the blocks ``_check_inputs`` returned, or row subsets
    of them; ``masks`` is a per-source list of dropout masks (None
    disables dropout).  A training step passes ``buffers``, each source's
    arrays from ``Workspace.buffers``, and ``caches``, a list that
    receives each source's encoder cache.  Without masks or caches the
    encoders run in row blocks.  Without buffers the arrays are fresh,
    and each source's evidence keeps only what the fusion reads: its
    (N, H) fields are None, so its arrays are freed before the next
    source's are made.
    """
    evidence = []
    aux_logit_list = []
    for i, (src, x) in enumerate(zip(model.sources, inputs)):
        layers, out = (None, None) if buffers is None else buffers[i]
        if masks is None and caches is None:
            z = encode_blocks(src.encoder, x)
        else:
            z, cache = src.encoder.forward(x, masks[i] if masks else None, layers)
            if caches is not None:
                caches.append(cache)
        ev = evidence_batch(z, **src.enn.as_param_dict(), out=out)
        if buffers is None:
            ev = replace(ev, sq_dist=None, closeness=None, activation=None)
        evidence.append(ev)
        aux_logit_list.append(src.aux.forward(z))
    return fuse_evidence(evidence), aux_logit_list


def predict_batch(model: FusionModel, inputs) -> Predictions:
    """Eval-mode predictions with explanations for a whole split.

    Per-source and fused masses come from the same forward pass as the
    probabilities, so ``probs`` equals ``predict_probs`` exactly.
    """
    fused, _ = batch_internals(model, _model_inputs(model, inputs))
    singles, ign = fused.masses()
    per_source = [ev.masses() for ev in fused.sources]
    src_singles = np.stack([s for s, _ in per_source], axis=1)        # (N, K, M)
    totals = src_singles.sum(axis=2)                                  # (N, K)
    # degree of conflict between sources a and b: sum_a * sum_b - a . b
    conflict = (totals[:, :, None] * totals[:, None, :]
                - np.einsum("nam,nbm->nab", src_singles, src_singles))
    k = len(per_source)
    conflict[:, np.arange(k), np.arange(k)] = 0.0
    return Predictions(
        probs=fused.probs,
        singletons=singles,
        ignorance=ign[:, 0],
        source_singletons=src_singles,
        source_ignorance=np.concatenate([g for _, g in per_source], axis=1),
        conflict=conflict,
    )


def predict_probs(model: FusionModel, inputs) -> np.ndarray:
    """(N, M) pignistic probabilities, eval mode."""
    return batch_internals(model, _model_inputs(model, inputs))[0].probs


# ---------------------------------------------------------------------------
# losses
#
# Both terms are class-weighted means of -log p(true class).  The array
# functions below give their values on every path; ``_objective_vjp`` is
# the whole objective's hand-derived VJP.

def _true_class(labels, class_weights):
    """Row indices, labels and each row's class weight."""
    labels = np.asarray(labels)
    return np.arange(len(labels)), labels, np.asarray(class_weights)[labels]


def _weighted_nll(weights, log_p_true):
    return -(np.add.reduce(weights * log_p_true) * (1.0 / len(weights)))


def _shifted_exp(logits):
    """Max-shifted logits, their exponentials and the row sums of those."""
    shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    e = np.exp(shifted)
    return shifted, e, np.add.reduce(e, axis=1, keepdims=True)


def loss_main(probs, labels, class_weights) -> float:
    """Class-weighted negative log of the predicted true-class probability."""
    rows, labels, weights = _true_class(labels, class_weights)
    return _weighted_nll(weights, np.log(np.maximum(probs[rows, labels], PROB_FLOOR)))


def loss_aux(logits, labels, class_weights) -> float:
    """Class-weighted cross entropy over softmaxed logits (max-shifted)."""
    rows, labels, weights = _true_class(labels, class_weights)
    shifted, _, total = _shifted_exp(logits)
    return _weighted_nll(weights, (shifted - np.log(total))[rows, labels])


def _objective(model, probs, aux_logits, labels):
    """Main loss plus each nonzero auxiliary weight times its source's
    aux loss."""
    total = loss_main(probs, labels, model.class_weights)
    for src, logits in zip(model.sources, aux_logits):
        if src.spec.aux_weight != 0.0:
            total = total + src.spec.aux_weight * loss_aux(logits, labels, model.class_weights)
    return total


def _objective_vjp(model, probs, aux_logits, labels):
    """Gradients of ``_objective`` with respect to the fused probabilities
    and to each source's aux logits (None where its aux weight is 0)."""
    # d/dp of -(1/n) w log max(p_true, floor) is c / p_true with
    # c = -(1/n) w, zero where the floor clamps; d/dlogits of an aux
    # term is -(a/n) w (onehot - softmax).  The factors are grouped as
    # in the chained-op reference, so both round alike.
    rows, labels, weights = _true_class(labels, model.class_weights)
    n = len(rows)
    coef = -(1.0 / n) * weights
    p_true = probs[rows, labels]
    g_probs = np.zeros_like(probs)
    g_probs[rows, labels] = np.where(p_true > PROB_FLOOR,
                                     coef / np.maximum(p_true, PROB_FLOOR), 0.0)
    g_aux = []
    for src, logits in zip(model.sources, aux_logits):
        weight = src.spec.aux_weight
        if weight == 0.0:
            g_aux.append(None)
            continue
        coef = -weight * (1.0 / n) * weights
        _, e, row_sums = _shifted_exp(logits)
        g_logits = (-coef[:, None] / row_sums) * e
        g_logits[rows, labels] += coef
        g_aux.append(g_logits)
    return g_probs, g_aux


def loss_overall(model: FusionModel, inputs, labels, masks=None):
    """Main loss plus auxiliary-weighted per-source cross entropies.

    ``inputs`` are checked blocks, as in ``batch_internals``; the label
    count is checked here.
    """
    _check_labels(inputs, labels)
    fused, aux_logits = batch_internals(model, inputs, masks=masks)
    return _objective(model, fused.probs, aux_logits, labels)


def make_dropout_masks(model: FusionModel, n: int, rng) -> list:
    return [
        sample_dropout_masks(src.encoder, n, rng)
        for src in model.sources
    ]


def loss_and_grad(model: FusionModel, inputs, labels, params=None, masks=None):
    """Overall loss and its gradient as one flat vector.

    ``params`` is a ``FlatParams`` of the model's layout (by default, a
    fresh one); the parameter values are the model's own (``train``
    passes a model whose arrays are views of ``params.flat``).  The
    gradient is written into ``params.grad``, zeroed first, and returned,
    so the next call on the same ``params`` overwrites it; the step's
    encoder layers and evidential arrays come from ``params.workspace``.
    ``inputs`` are checked blocks, as in ``batch_internals``.  A
    parameter the loss does not reach keeps a zero gradient.  Frozen
    inputs (e.g. precomputed text embeddings) are data, not parameters,
    so they get no gradient.

    The forward keeps what the backward reads (each encoder's cache, each
    source's evidence); the backward runs the objective's VJP,
    ``fusion_vjp`` and, per source, ``_source_vjp``, the aux head's and
    the encoder's backward.  A component adds each parameter's gradient
    into its zeroed slot, and an encoder output's gradient is its
    evidence term, then plus its aux head's, so every gradient has the
    bits of the tape step that the tests keep as the reference.  Nothing
    the step makes refers back to itself, so reference counting frees it
    all when the step returns, except the workspace's arrays.
    """
    _check_labels(inputs, labels)
    if params is None:
        params = FlatParams.from_model(model)
    work = params.workspace
    buffers = work.buffers(model, len(labels))
    caches = []
    fused, aux_logits = batch_internals(model, inputs, masks=masks, buffers=buffers,
                                        caches=caches)
    loss = float(_objective(model, fused.probs, aux_logits, labels))
    if not np.isfinite(loss):
        raise TrainingDivergedError(f"non-finite loss {loss!r}")
    params.grad.fill(0.0)
    g_probs, g_aux = _objective_vjp(model, fused.probs, aux_logits, labels)
    d_log_q, d_log_q_omega = fusion_vjp(fused, g_probs)
    steps = zip(model.sources, work.grad_model(model).sources, fused.sources, caches, g_aux,
                buffers)
    for src, grads, ev, cache, g_logits, (_, out) in steps:
        g_z, *g_enn = _source_vjp(ev, d_log_q, d_log_q_omega, out.terms)
        for slot, g in zip(grads.enn.as_param_dict().values(), g_enn):
            slot += g
        if g_logits is not None:
            g_z += src.aux.backward(ev.inputs[0], g_logits, grads.aux.params)
        src.encoder.backward(cache, g_z, grads.encoder.params)
    return loss, params.grad


# ---------------------------------------------------------------------------
# training

@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    max_epochs: int = 150
    patience: int = 10
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 0:
            raise ConfigError("batch_size/max_epochs must be >= 1 and patience >= 0")
        data.require_nonnegative("learning rate", self.learning_rate)


@dataclass
class TrainResult:
    model: FusionModel
    history: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_loss: float = float("inf")


class Adam:
    """Adam over one flat parameter vector, updated in place."""

    def __init__(self, size: int, config: TrainConfig):
        self.learning_rate = config.learning_rate
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.step = 0

    def update(self, flat: np.ndarray, grad: np.ndarray):
        self.step += 1
        correction = np.sqrt(1.0 - ADAM_BETA2 ** self.step) / (1.0 - ADAM_BETA1 ** self.step)
        self.m *= ADAM_BETA1
        self.m += (1.0 - ADAM_BETA1) * grad
        self.v *= ADAM_BETA2
        self.v += (1.0 - ADAM_BETA2) * (grad * grad)
        flat -= self.learning_rate * correction * self.m / (np.sqrt(self.v) + ADAM_EPS)


def train(model: FusionModel, train_inputs, train_labels, val_inputs, val_labels,
          config: TrainConfig) -> TrainResult:
    """Mini-batch Adam with early stopping on validation overall loss.

    Stops once the validation loss has not improved for ``patience``
    consecutive epochs (patience 0 disables early stopping) and returns
    the parameters from the best-validation epoch.
    """
    train_labels = np.asarray(train_labels)
    val_labels = np.asarray(val_labels)
    n = len(train_labels)
    if n == 0 or len(val_labels) == 0:
        raise DataError("training and validation splits must be non-empty")
    train_inputs = _model_inputs(model, train_inputs)
    val_inputs = _model_inputs(model, val_inputs)
    _check_labels(train_inputs, train_labels)
    _check_labels(val_inputs, val_labels)

    shuffle_rng = substream(config.seed, "shuffle")
    dropout_rng = substream(config.seed, "dropout")

    # built once: every step updates flat in place and writes grad, and
    # reuses the workspace; live's arrays are views of flat, so each step
    # and the validation loss read the current parameters
    slots = FlatParams.from_model(model)
    flat = slots.flat
    live = with_params(model, slots.params)
    adam = Adam(flat.size, config)

    best_flat = flat.copy()
    best_val = float("inf")
    best_epoch = -1
    history = []
    wait = 0

    for epoch in range(config.max_epochs):
        order = shuffle_rng.permutation(n)
        train_loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            batch_inputs = [x[idx] for x in train_inputs]
            masks = make_dropout_masks(model, len(idx), dropout_rng)
            try:
                loss, grad = loss_and_grad(live, batch_inputs, train_labels[idx],
                                           params=slots, masks=masks)
            except TrainingDivergedError as exc:
                raise TrainingDivergedError(f"training loss diverged at epoch {epoch}") from exc
            train_loss_sum += loss * len(idx)
            adam.update(flat, grad)
        val_loss = float(loss_overall(live, val_inputs, val_labels))
        if not np.isfinite(val_loss):
            raise TrainingDivergedError(f"validation loss diverged at epoch {epoch}")
        history.append({
            "epoch": epoch,
            "train_loss": train_loss_sum / n,
            "val_loss": val_loss,
        })
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_flat = flat.copy()
            wait = 0
        else:
            wait += 1
            if wait >= config.patience > 0:
                break

    return TrainResult(
        model=with_params(model, {k: v.copy() for k, v in slots.views(best_flat).items()}),
        history=history,
        best_epoch=best_epoch,
        best_val_loss=best_val,
    )


# ---------------------------------------------------------------------------
# model construction and checkpoints

def init_model(frame: Frame, specs, train_inputs, train_labels, seed: int,
               prototypes: int, encoder_overrides=None) -> FusionModel:
    """Seeded model construction.

    Encoders get random seeded weights; each source's evidential layer
    is initialized on its encoder's untrained output for the training
    inputs (k-means prototypes, label-frequency memberships).
    """
    train_inputs = _check_inputs(specs, train_inputs)
    train_labels = np.asarray(train_labels)
    weights = data.class_weights(train_labels, frame.m)
    sources = []
    overrides = encoder_overrides or {}
    for spec, x in zip(specs, train_inputs):
        encoder = init_encoder(spec.encoder_kind, x.shape[1],
                               substream(seed, f"init.encoder.{spec.name}"),
                               **overrides.get(spec.name, {}))
        z = encode_blocks(encoder, x)
        enn_seed = int(substream(seed, f"init.enn.{spec.name}").integers(0, 2 ** 31 - 1))
        try:
            enn = init_enn(z, train_labels, prototypes, enn_seed, m=frame.m)
        except DataError as exc:
            raise DataError(f"source {spec.name!r}: {exc}") from exc
        aux = init_aux_head(encoder.output_dim, frame.m,
                            substream(seed, f"init.aux.{spec.name}"))
        sources.append(FusionSource(spec, encoder, enn, aux))
    return FusionModel(frame, sources, weights)


_ENCODER_CLASSES = {cls.kind: cls for cls in (MlpEncoder, ResNetEncoder, TextHeadEncoder)}


def _array_to_json(arr) -> dict:
    """A version-2 parameter array: its shape and the base64 of its
    little-endian float64 bytes, in C order."""
    arr = np.asarray(arr, dtype="<f8")
    return {"shape": list(arr.shape), "f8": base64.b64encode(arr.tobytes()).decode("ascii")}


def _array_from_list(value) -> np.ndarray:
    """A version-1 parameter array: nested lists of JSON numbers."""
    return np.asarray(value, dtype=np.float64)


def _array_from_f8(value) -> np.ndarray:
    """A version-2 parameter array, its shape and byte count checked
    before anything is reshaped; a native-endian, writable copy."""
    shape = value["shape"]
    if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
        raise ValueError(f"shape {shape!r} is not a list of non-negative integers")
    try:
        raw = base64.b64decode(value["f8"], validate=True)
    except binascii.Error as exc:
        raise ValueError(f"f8 is not base64 ({exc})") from None
    size = 8 * math.prod(shape)
    if len(raw) != size:
        raise ValueError(f"{len(raw)} bytes for shape {tuple(shape)}, which needs {size}")
    return np.frombuffer(raw, "<f8").astype(np.float64).reshape(shape)


# checkpoint format version -> the decoder of its parameter arrays
_ARRAY_DECODERS = {1: _array_from_list, CHECKPOINT_VERSION: _array_from_f8}


def _params_from_json(decode, params: dict, what: str) -> dict:
    out = {}
    for key, value in params.items():
        try:
            out[key] = decode(value)
        except (LookupError, TypeError, ValueError) as exc:
            raise DataError(f"{what} parameter {key!r}: {type(exc).__name__}: {exc}") from exc
    return out


def _component_to_json(component, **extra) -> dict:
    """An encoder's or aux head's dataclass fields and its parameters."""
    doc = {f.name: getattr(component, f.name) for f in fields(component)}
    doc["params"] = {k: _array_to_json(v) for k, v in component.params.items()}
    return {**doc, **extra}


def _component_from_json(cls, doc: dict, decode, what: str):
    kwargs = {f.name: doc[f.name] for f in fields(cls)}
    kwargs["params"] = _params_from_json(decode, doc["params"], what)
    return cls(**kwargs)


def model_to_json_dict(model: FusionModel, config_hash: str = "", extra=None) -> dict:
    """The checkpoint document of ``model``, in format version 2."""
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "config_hash": config_hash,
        "frame": {"labels": list(model.frame.labels)},
        "class_weights": model.class_weights.tolist(),
        "sources": [
            {
                "spec": asdict(src.spec),
                "encoder": _component_to_json(src.encoder, kind=src.encoder.kind),
                "enn": {k: _array_to_json(v) for k, v in src.enn.as_param_dict().items()},
                "aux": _component_to_json(src.aux),
            }
            for src in model.sources
        ],
    }
    if extra:
        doc["extra"] = extra
    return doc


def _check_component(what, component, expected):
    """A loaded encoder or aux head matches ``expected``, a parameterless
    one of its dimensions: the same fields, and parameters of the names
    and shapes they imply (``shapes()``), all finite."""
    for f in fields(component):
        got, want = getattr(component, f.name), getattr(expected, f.name)
        if f.name != "params" and got != want:
            raise DataError(f"{what} {f.name} {got!r}, expected {want!r}")
    params, shapes = component.params, expected.shapes()
    for key in sorted(params.keys() | shapes.keys()):
        got = params[key].shape if key in params else "missing"
        want = shapes[key] if key in shapes else "no such parameter"
        if got != want:
            raise DataError(f"{what} parameter {key!r}: {got}, expected {want}")
        if not np.all(np.isfinite(params[key])):
            raise DataError(f"{what} parameter {key!r}: non-finite values")


def model_from_json_dict(doc: dict) -> FusionModel:
    """The model of a checkpoint document of either format version."""
    version = doc.get("format_version")
    if type(version) is not int or version not in _ARRAY_DECODERS:  # not True or 2.0
        raise DataError(f"unsupported checkpoint version {version!r}; "
                        f"supported versions: {', '.join(map(str, _ARRAY_DECODERS))}")
    decode = _ARRAY_DECODERS[version]
    frame = Frame(tuple(doc["frame"]["labels"]))
    sources = []
    for sd in doc["sources"]:
        spec = SourceSpec(**sd["spec"])
        what = f"source {spec.name!r}"
        encoder = _component_from_json(_ENCODER_CLASSES[sd["encoder"]["kind"]], sd["encoder"],
                                       decode, f"{what} encoder")
        enn = EnnParams.from_param_dict(
            _params_from_json(decode, sd["enn"], f"{what} evidential layer"))
        aux = _component_from_json(AuxHead, sd["aux"], decode, f"{what} aux head")
        # the other fields take their defaults, as init_encoder leaves them;
        # a residual net's hidden width is its output width
        hidden = encoder.output_dim if encoder.kind == "resnet" else encoder.hidden_dim
        _check_component(f"{what} encoder", encoder,
                         type(encoder)({}, encoder.input_dim, hidden, encoder.output_dim))
        _check_component(f"{what} aux head", aux, AuxHead({}, encoder.output_dim, frame.m))
        if enn.prototypes.shape[1] != encoder.output_dim:
            raise DataError(f"{what}: prototypes of width "
                            f"{enn.prototypes.shape[1]} for a {encoder.output_dim}-wide encoder")
        sources.append(FusionSource(spec, encoder, enn, aux))
    return FusionModel(frame, sources, np.asarray(doc["class_weights"], dtype=np.float64))


def save_checkpoint(model: FusionModel, path: str, config_hash: str = "", extra=None):
    """Write ``model`` as one JSON document of format version 2, replacing
    ``path`` atomically.

    Every parameter array (encoder, evidential layer, aux head) is
    ``{"shape": [...], "f8": ...}``: ``f8`` is the RFC 4648 base64 of the
    array's IEEE 754 binary64 little-endian bytes in C order, so a load
    gets exactly the bits the model held without printing or parsing a
    decimal.  Everything else (fields, ``class_weights``, ``extra``) is
    plain JSON.
    """
    doc = model_to_json_dict(model, config_hash=config_hash, extra=extra)
    tmp = f"{path}.tmp"
    # json.dumps runs the C encoder; json.dump to a file always runs the
    # pure-Python one
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    os.replace(tmp, path)


def load_checkpoint(path: str):
    """Returns (model, full checkpoint document).

    Reads format version 2 (see ``save_checkpoint``) and version 1, whose
    parameter arrays are nested lists of numbers; the version picks the
    one array decoder, and everything after it is shared.  A version-2
    array's ``shape`` must be a list of non-negative ``int``s, its ``f8``
    strict base64 of exactly 8 bytes per entry (checked before anything
    is reshaped); its array is a native-endian, writable copy.  Each
    component is then checked against the layout of its dimensions (the
    fields a fresh one would have, the parameter names and shapes of its
    ``shapes()``), its values must be finite, each source's prototypes as wide as its encoder's output, and
    the class weights finite and positive.  Any fault, an unsupported
    version included, is a ``DataError("malformed checkpoint <path>: …")``;
    a faulty parameter is named with its source.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return model_from_json_dict(doc), doc
    except FileNotFoundError as exc:
        raise DataError(f"checkpoint not found: {path}") from exc
    # a JSONDecodeError is a ValueError
    # RecursionError: JSON nested too deeply for the parser
    except (LookupError, AttributeError, TypeError, ValueError, RecursionError,
            EvidFuseError) as exc:
        raise DataError(f"malformed checkpoint {path}: {type(exc).__name__}: {exc}") from exc

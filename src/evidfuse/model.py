"""Multi-source fusion model: encoders, evidential layers, Dempster
fusion, the class-weighted training objective, and the training loop.

Each evidence source owns an encoder, an evidential layer, and an
auxiliary logit head.  The forward is batched: it encodes every source,
runs the evidential layers and the aux heads (a training step one group
of sources at a time, ``evidential.source_groups``: consecutive sources
of equal shapes whose aux weights are all zero or all nonzero, as many
as keep the stacked term array small; the eval pass one source at a
time), and ``evidential.fuse_evidence`` fuses all sources' prototype
evidence in the log-commonality domain and returns pignistic
probabilities.  It
has two callers, so it has two bodies.  ``batch_internals`` is the eval
pass: ``predict_probs``, ``predict_batch`` and the per-epoch validation
loss (``loss_overall``) run it, only the validation loss asks it for the
aux heads' logits, and ``predict_batch`` adds the fused and per-source
masses and the pairwise source conflict as one struct of
arrays.  A training step (``loss_and_grad``) runs its own forward, with
dropout, and keeps what its backward reads.  The exact per-sample mass
algebra both are checked against lives in the tests.

The eval pass (and ``init_model``'s encoding of the training rows) runs
the encoders in ``encoders.ENCODE_BLOCK_ROWS``-row blocks, so memory does
not grow with rows times hidden width.  The blocks keep the bits of a
whole-split forward (see ``encoders``), so a step without dropout has
the eval pass's loss, bit for bit.  Everything from the distance product
``z @ p.T`` on (evidence, fusion, auxiliary logits, loss) stays
whole-split: that product's bits depend on its row count, so blocking it
would change them.  A training step runs each encoder on its whole
batch.

Input rows are checked once, where they enter: ``init_model``,
``train`` (each split), ``predict_probs`` and ``predict_batch`` run
``_check_inputs`` on them, and every pass inside (``batch_internals``,
``loss_overall``, ``loss_and_grad``, the encoders and the evidential
layer) trusts the float64 arrays it returns, so no training step or
validation epoch checks them again.

The objective is the class-weighted log loss on the fused probabilities
plus per-source class-weighted cross-entropies on the auxiliary logits,
each scaled by the source's auxiliary weight; a source whose weight is 0
adds no term.  ``_objective`` computes it and its gradients in one pass,
for the training step and for the validation loss (``loss_overall``,
which drops the gradients), so the two losses are one computation.  A
training step (``loss_and_grad``) records nothing: its forward keeps
what the backward reads (each encoder's cache, each group's evidence and
aux logits), and the backward runs hand-derived VJPs, the fusion's
(``evidential.fusion_vjp``), each group's evidential and aux heads'
(``_source_vjp``, ``encoders.aux_backward``) and each encoder's
``backward``.  Nothing in it refers back to itself, so reference
counting frees the step when it returns and the cyclic collector has
nothing to do.  Training runs mini-batch Adam with early stopping on the
validation overall loss, restoring the best-validation parameters; its
dropout masks come from one ``encoders.DropoutMasks``, one draw per
step into storage that every step reuses.

Parameters travel as name->array dicts.  ``FlatParams`` is their one
flat layout: during training they and their gradients live in two flat
vectors, built once per ``train``; each component's ``backward`` adds
its gradients into its views of the gradient vector, so an Adam step is
a single vectorized update of the parameter vector, with no per-step
gradient dict and no flattening.  The layout (``param_dict``'s order)
puts the aux head and evidential parameters by kind across sources, so
a group's parameters and gradients of one kind are one (G, ...) view of
either vector; a checkpoint still holds each source's own arrays.
``train`` also builds, once, a model whose arrays are views into the
parameter vector; every step and the per-epoch validation loss run on
it, so they see every update, and its steps stack a group's parameters
without a copy.

The same ``FlatParams`` carries the run's ``Workspace``, built at
``train``'s first step, its largest, which also fixes the groups, and
reused, through views, by the ragged last batch: each source's hidden
encoder layer outputs, per group one (G, N, D) array whose slices are
its sources' encoder outputs (so the group's z is stacked as it is
written) and three (G, N, H) evidential arrays, and one (G, M, N, H)
term array, sized for the largest group, that every group's forward and
VJP share.  A step that allocated them afresh would hand them all back
to the allocator at its end, which trims the heap and faults the pages
in again on the next step.  The eval pass gets fresh arrays but keeps
only each source's log-commonalities, so one source's (N, H) arrays
are freed before the next source's are made and the pass's memory does
not grow with the number of sources.  It does not group sources: its
passes run whole splits, whose term arrays outgrow the group budget
(a few hundred rows at H = 20) on every benchmarked workload.

A checkpoint is one JSON document.  ``save_checkpoint`` writes format
version 2, where each parameter array is ``{"shape", "f8"}``, the base64
of its little-endian float64 bytes, so saving and loading neither print
nor parse a decimal and a load gets back the saved bits.
``load_checkpoint`` also reads version 1, whose arrays are nested lists;
the format version picks the array decoder and every check after it
(each component against the layout its dimensions imply, finite values,
prototype width, finite positive class weights) is shared.  Whatever the
file holds, ``load_checkpoint`` returns a model or raises an
``EvidFuseError`` naming the file (``tests/test_fuzz.py`` checks that).
"""

import base64
import binascii
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from . import data
# Tape is used by no code here: the benchmark's tracer and smoke test look
# up evidfuse.model.Tape (ROADMAP item 1)
from .autodiff import Tape  # noqa: F401
from .encoders import (
    AUX_KEYS,
    AuxHead,
    DropoutMasks,
    MlpEncoder,
    ResNetEncoder,
    TextHeadEncoder,
    aux_backward,
    aux_forward,
    encode_blocks,
    init_aux_head,
    init_encoder,
    layer_widths,
)
from .errors import ConfigError, DataError, EvidFuseError, TrainingDivergedError
from .evidential import (ENN_KEYS, EnnParams, EvidenceBuffers, _source_vjp, evidence_batch,
                         fuse_evidence, fusion_vjp, init_enn, source_groups)
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
        return Predictions(*[getattr(self, name)[index] for name in _PREDICTION_FIELDS])


_PREDICTION_FIELDS = tuple(f.name for f in fields(Predictions))


# ---------------------------------------------------------------------------
# parameter plumbing

def param_dict(model: FusionModel) -> dict:
    """Every trainable scalar array under a stable dotted name: each
    source's encoder parameters, then the aux head ones by kind across
    sources (every source's ``w``, then every ``b``), then the evidential
    ones by kind across sources (every ``prototypes``, then every
    ``scale_raw``, and so on), so that consecutive sources' arrays of one
    kind are adjacent in ``FlatParams``' vectors."""
    out = {}
    for i, src in enumerate(model.sources):
        for key in sorted(src.encoder.params):
            out[f"src{i}.encoder.{key}"] = src.encoder.params[key]
    for key in AUX_KEYS:
        for i, src in enumerate(model.sources):
            out[f"src{i}.aux.{key}"] = src.aux.params[key]
    for key in ENN_KEYS:
        for i, src in enumerate(model.sources):
            out[f"src{i}.enn.{key}"] = getattr(src.enn, key)
    return out


# the (G, ...) parameters of a group, kind by kind: each (component, key)
# is a run of param_dict's layout
_GROUP_KINDS = tuple(("enn", key) for key in ENN_KEYS) + tuple(("aux", key) for key in AUX_KEYS)


def with_params(model: FusionModel, params: dict) -> FusionModel:
    """Rebuild the model around a replacement parameter dict."""
    sources = []
    for i, src in enumerate(model.sources):
        enc_params = {k: np.asarray(params[f"src{i}.encoder.{k}"]) for k in src.encoder.params}
        enn = EnnParams.from_param_dict({k: np.asarray(params[f"src{i}.enn.{k}"])
                                         for k in ENN_KEYS})
        aux_params = {k: np.asarray(params[f"src{i}.aux.{k}"]) for k in src.aux.params}
        sources.append(FusionSource(src.spec, replace(src.encoder, params=enc_params), enn,
                                    replace(src.aux, params=aux_params)))
    return FusionModel(model.frame, sources, model.class_weights)


def _group_keys(model):
    """What ``source_groups`` reads of each source: its evidential
    (H, D, M), and whether its aux weight is nonzero, so that a group's
    aux heads all count in the objective or none does."""
    return [(*src.enn.prototypes.shape, src.enn.m, src.spec.aux_weight != 0.0)
            for src in model.sources]


def _layout(shapes: dict) -> dict:
    """name -> (start, shape) in a flat vector laid out in ``shapes`` order."""
    out, offset = {}, 0
    for name, shape in shapes.items():
        out[name] = (offset, shape)
        offset += math.prod(shape)
    return out


class GroupBuffers(NamedTuple):
    """A group of sources as a training step computes it on n rows."""

    sources: range        # the group's source indices
    params: list          # its (G, ...) parameters, evidential then aux: flat vector views
    source_params: tuple  # each source's own views of them, kind by kind (param_dict's)
    grads: list           # their gradients, views of the flat gradient
    layers: list          # each source's encoder layer outputs, the last a slice of z
    z: np.ndarray         # (G, n, D) encoder outputs
    out: EvidenceBuffers  # (G, n, H) arrays and a view of the shared term array


class Workspace:
    """The arrays that the training steps on one ``FlatParams`` reuse; a
    ``train`` call makes one.

    The first step's ``buffers(model, n)`` builds it for that model and
    row count, which no later step may exceed (``train``'s first batch is
    its largest).  ``grad_model`` is then the model's layout over the
    gradient vector: a ``FusionModel`` whose arrays are the gradient
    views, so each encoder's ``backward`` adds into its own slots.  The
    first step also fixes the source groups (``source_groups`` at its n)
    and each group's (G, ...) views of the parameter and gradient vectors,
    one per evidential and aux head parameter kind, which ``param_dict``'s
    layout makes contiguous.  ``buffers`` gives each group's arrays for an
    n-row step (``GroupBuffers``): its sources' hidden encoder layer
    outputs (``encoders.layer_widths``), one (G, n, D) array whose slices
    are their output layers, three (G, n, H) evidential arrays and a view
    of one term array sized for the largest group, which every group's
    forward and VJP share.  A row count's views are built once, so the
    ragged last batch of an epoch reuses the storage of the full ones.
    """

    def __init__(self, layout: dict, flat: np.ndarray, grad: np.ndarray, params: dict,
                 grads: dict):
        self._layout, self._flat, self._grad = layout, flat, grad
        self._params, self._grads = params, grads
        self.grad_model = None
        self._groups = None
        self._views = {}

    def buffers(self, model, n: int) -> list:
        views = self._views.get(n)
        if views is None:
            if self._groups is None:
                self._build(model, n)
            views = self._views[n] = []
            for sources, (h, d, m), params, source_params, grads, z_store, own in self._groups:
                g = len(sources)
                z = z_store[:g * n * d].reshape(g, n, d)
                layers = [[a[:n * w].reshape(n, w) for a, w in self._hidden[k]] + [z[i]]
                          for i, k in enumerate(sources)]
                out = EvidenceBuffers(*(a[:g * n * h].reshape(g, n, h) for a in own),
                                      self._terms[:g * m * n * h].reshape(g, m, n, h))
                views.append(GroupBuffers(sources, params, source_params, grads, layers, z, out))
        return views

    @staticmethod
    def group_params(model, group: GroupBuffers) -> list:
        """The group's (G, ...) parameters of ``model``, one per kind
        (``_GROUP_KINDS``): its views of the parameter vector when the
        model's arrays are the sources' own views of it (``train``'s
        model), else a stack of the model's arrays.  Either way a step
        reads the model's values."""
        sources = [model.sources[k] for k in group.sources]
        arrays = ([getattr(src.enn, key) for key in ENN_KEYS for src in sources]
                  + [src.aux.params[key] for key in AUX_KEYS for src in sources])
        if all(a is view for a, view in zip(arrays, group.source_params)):
            return group.params
        g = len(group.sources)
        return [np.stack(arrays[i:i + g]) for i in range(0, len(arrays), g)]

    def _build(self, model, n):
        self.grad_model = with_params(model, self._grads)
        # every encoder layer but the output one, which is a slice of its group's z
        self._hidden = [[(np.empty(n * w), w) for w in layer_widths(src.encoder)[:-1]]
                        for src in model.sources]
        keys = _group_keys(model)
        self._groups = []
        for lo, hi in source_groups(keys, n):
            g, (h, d, m, _) = hi - lo, keys[lo]
            self._groups.append((range(lo, hi), (h, d, m), self._stacked(self._flat, lo, hi),
                                 tuple(self._params[f"src{k}.{component}.{key}"]
                                       for component, key in _GROUP_KINDS for k in range(lo, hi)),
                                 self._stacked(self._grad, lo, hi), np.empty(g * n * d),
                                 [np.empty(g * n * h) for _ in range(3)]))
        self._terms = np.empty(max(len(sources) * m * n * h
                                   for sources, (h, _, m), *_ in self._groups))

    def _stacked(self, vec, lo, hi):
        """Sources lo..hi-1's evidential and aux parameters, one (G, ...)
        view of ``vec`` per kind."""
        out = []
        for component, key in _GROUP_KINDS:
            start, shape = self._layout[f"src{lo}.{component}.{key}"]
            out.append(vec[start:start + (hi - lo) * math.prod(shape)].reshape(hi - lo, *shape))
        return out


@dataclass(frozen=True, eq=False)
class FlatParams:
    """A model's parameters and their gradients as two flat vectors, laid
    out in ``param_dict`` order, and the workspace of the training steps
    that write that gradient.

    ``params`` and ``grads`` are named views into ``flat`` and ``grad``:
    an Adam step updates ``flat`` in place, and a training step adds each
    parameter's gradient into its ``grads`` view.  The layout puts the
    evidential parameters by kind across sources, so the workspace also
    views a group of sources' arrays of one kind as one (G, ...) array;
    Adam is elementwise, so the order moves no bit.
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
        object.__setattr__(self, "workspace", Workspace(_layout(self.shapes), self.flat,
                                                        self.grad, self.params, self.grads))

    @staticmethod
    def from_model(model: FusionModel) -> "FlatParams":
        params = param_dict(model)
        flat = np.concatenate([np.asarray(v, dtype=np.float64).reshape(-1)
                               for v in params.values()])
        return FlatParams({k: np.shape(v) for k, v in params.items()}, flat,
                          np.zeros(flat.size))

    def views(self, vec: np.ndarray) -> dict:
        """Named arrays of this layout that share memory with ``vec``."""
        return {name: vec[start:start + math.prod(shape)].reshape(shape)
                for name, (start, shape) in _layout(self.shapes).items()}


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


def _concat_sources(arrays):
    """The groups' (G, ...) arrays as one (K, ...) array: a lone one as it is."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _log_commonalities(z, enn):
    """One source's log-commonalities, (1, N, M) and (1, N, 1), from the
    eval pass's fresh arrays: only these outlive the call, so the
    source's (N, H) arrays are freed before the next source's are made."""
    ev = evidence_batch(z[None], *(getattr(enn, key)[None] for key in ENN_KEYS))
    return ev.log_q, ev.log_q_omega


def batch_internals(model, inputs, aux=False):
    """The eval pass, without dropout: fused evidence (``fused.probs``
    included) and, when ``aux`` asks for them, per-source aux logits (else
    an empty list).

    ``inputs`` are the blocks ``_check_inputs`` returned, or row subsets
    of them.  The encoders run in row blocks into fresh arrays, and each
    source runs its own evidential pass (and aux head), groups of one, of
    whose evidence only the log-commonalities are kept.
    """
    log_q, log_q_omega, aux_logit_list = [], [], []
    for src, x in zip(model.sources, inputs):
        z = encode_blocks(src.encoder, x)
        source_q, source_q_omega = _log_commonalities(z, src.enn)
        log_q.append(source_q)
        log_q_omega.append(source_q_omega)
        if aux:
            aux_logit_list.append(aux_forward(z[None], *(src.aux.params[key][None]
                                                         for key in AUX_KEYS))[0])
    return fuse_evidence(_concat_sources(log_q), _concat_sources(log_q_omega)), aux_logit_list


def predict_batch(model: FusionModel, inputs) -> Predictions:
    """Eval-mode predictions with explanations for a whole split.

    Per-source and fused masses come from the same forward pass as the
    probabilities, so ``probs`` equals ``predict_probs`` exactly.
    """
    fused, _ = batch_internals(model, _model_inputs(model, inputs))
    singles, ign = fused.masses()
    src_singles, src_ign = fused.source_masses()                      # (K, N, M), (K, N, 1)
    # (N, K, M), stacked from the (N, M) slices so that N keeps the
    # smallest stride, as in theirs: the sum and einsum below run three
    # times slower on a C-ordered copy
    src_singles = np.stack(list(src_singles), axis=1)
    totals = src_singles.sum(axis=2)                                  # (N, K)
    # degree of conflict between sources a and b: sum_a * sum_b - a . b
    conflict = (totals[:, :, None] * totals[:, None, :]
                - np.einsum("nam,nbm->nab", src_singles, src_singles))
    k = len(model.sources)
    conflict[:, np.arange(k), np.arange(k)] = 0.0
    return Predictions(
        probs=fused.probs,
        singletons=singles,
        ignorance=ign[:, 0],
        source_singletons=src_singles,
        source_ignorance=src_ign[:, :, 0].T.copy(),
        conflict=conflict,
    )


def predict_probs(model: FusionModel, inputs) -> np.ndarray:
    """(N, M) pignistic probabilities, eval mode."""
    return batch_internals(model, _model_inputs(model, inputs))[0].probs


# ---------------------------------------------------------------------------
# the objective
#
# Both terms are class-weighted means of -log p(true class): the main one
# of the fused probabilities (floored at PROB_FLOOR), each aux one of its
# source's max-shifted softmax.  ``_objective`` computes the loss and its
# gradients in one pass, for the training step and the validation loss.

def _weighted_nll(weights, log_p_true):
    """The class-weighted mean of -log p(true class) over the last axis:
    one term's loss, or (G,) losses of G sources' (G, N) log-probabilities
    (a row's sum has the bits of the 1-D sum)."""
    return -(np.add.reduce(weights * log_p_true, axis=-1) * (1.0 / len(weights)))


def _objective(probs, labels, class_weights, aux):
    """The objective and its gradients with respect to the fused
    probabilities and to each aux term's logits.

    ``aux`` holds (aux weights, logits) pairs, one per group of sources
    whose aux weights are all nonzero: the G weights in source order and
    the group's (G, N, M) logits.  The loss is the main loss plus each
    weight times its source's aux loss, added in source order; the row
    indices, the class weights and each source's softmax are computed
    once.  Returns (loss, gradient of the probabilities, one (G, N, M)
    logit gradient per pair).

    d/dp of -(1/n) w log max(p_true, floor) is c / p_true with c =
    -(1/n) w, zero where the floor clamps; d/dlogits of an aux term is
    -(a/n) w (onehot - softmax).  The factors are grouped as in the
    chained-op reference, so both round alike.
    """
    labels = np.asarray(labels)
    n = len(labels)
    rows, weights = np.arange(n), np.asarray(class_weights)[labels]
    p_true = probs[rows, labels]
    clamped = np.maximum(p_true, PROB_FLOOR)
    loss = _weighted_nll(weights, np.log(clamped))
    g_probs = np.zeros_like(probs)
    g_probs[rows, labels] = np.where(p_true > PROB_FLOOR, -(1.0 / n) * weights / clamped, 0.0)
    g_aux = []
    for aux_weights, logits in aux:
        shifted = logits - np.maximum.reduce(logits, axis=2, keepdims=True)
        e = np.exp(shifted)
        row_sums = np.add.reduce(e, axis=2, keepdims=True)
        log_p_true = shifted[:, rows, labels] - np.log(row_sums[:, :, 0])
        for weight, source_loss in zip(aux_weights, _weighted_nll(weights, log_p_true)):
            loss = loss + weight * source_loss
        coef = (-np.asarray(aux_weights, dtype=np.float64) * (1.0 / n))[:, None] * weights
        g_logits = (-coef[:, :, None] / row_sums) * e
        g_logits[:, rows, labels] += coef
        g_aux.append(g_logits)
    return loss, g_probs, g_aux


def loss_overall(model: FusionModel, inputs, labels):
    """Main loss plus auxiliary-weighted per-source cross entropies, on
    the eval pass (``batch_internals``): no dropout.

    ``inputs`` are checked blocks, as in ``batch_internals``; the label
    count is checked here.  The objective is the training step's, each
    source an aux term of its own; its gradients are dropped.
    """
    _check_labels(inputs, labels)
    fused, aux_logits = batch_internals(model, inputs, aux=True)
    aux = [((src.spec.aux_weight,), logits[None])
           for src, logits in zip(model.sources, aux_logits) if src.spec.aux_weight != 0.0]
    return _objective(fused.probs, labels, model.class_weights, aux)[0]


def loss_and_grad(model: FusionModel, inputs, labels, params=None, masks=None):
    """Overall loss and its gradient as one flat vector.

    ``params`` is a ``FlatParams`` of the model's layout (by default a
    fresh one).  The gradient is written into ``params.grad``, zeroed
    first, and returned, so the next call on the same ``params``
    overwrites it; the step's encoder layers and evidential arrays come
    from ``params.workspace``.  Every parameter value is read from
    ``model``: ``train`` passes a model whose arrays are views of
    ``params.flat``, so a group's evidential and aux parameters of one
    kind are one (G, ...) view of it, and any other model's are stacked
    (``Workspace.group_params``).
    ``inputs`` are checked blocks, as in ``batch_internals``; ``masks``
    is a per-source list of dropout masks (None disables dropout).  A
    parameter the loss does not reach keeps a zero gradient.  Frozen
    inputs (e.g. precomputed text embeddings) are data, not parameters,
    so they get no gradient.

    The forward runs, per group of sources (the workspace's), each
    encoder's ``forward`` on the whole batch, with its mask, into the
    workspace's layers (its output layer a slice of the group's z), and
    keeps its cache; then, if the group's aux weights are nonzero, one
    ``aux_forward`` of its aux heads, and one ``evidence_batch``, on the
    group's stacked z and stacked parameters, in the workspace's
    evidential arrays; then ``fuse_evidence`` and ``_objective``, which
    also gives the gradients of the probabilities and of each group's
    logits.  Without dropout its loss has the bits of ``loss_overall``'s.
    The backward runs ``fusion_vjp`` and, per group, ``_source_vjp``,
    whose parameter gradients add into the group's stacked views of
    ``params.grad``, one ``+=`` per parameter kind, and ``aux_backward``,
    then each source's encoder ``backward``.  A component adds each
    parameter's gradient into its zeroed slot, and an encoder output's
    gradient is its evidence term, then plus its aux head's, so every
    gradient has the bits of the tape step that the tests keep as the
    reference.  Nothing the step makes refers back to itself, so
    reference counting frees it all when the step returns, except the
    workspace's arrays.
    """
    _check_labels(inputs, labels)
    if params is None:
        params = FlatParams.from_model(model)
    work = params.workspace
    groups = work.buffers(model, len(labels))
    masks = masks or [None] * len(inputs)
    caches, aux_heads, evidence, aux = [], [], [], []
    for group in groups:
        for k, layers in zip(group.sources, group.layers):
            caches.append(model.sources[k].encoder.forward(inputs[k], masks[k], layers)[1])
        *enn, w, b = work.group_params(model, group)
        aux_weights = tuple(model.sources[k].spec.aux_weight for k in group.sources)
        # source_groups keeps zero and nonzero aux weights apart
        aux_heads.append(w if aux_weights[0] != 0.0 else None)
        if aux_weights[0] != 0.0:
            aux.append((aux_weights, aux_forward(group.z, w, b)))
        evidence.append(evidence_batch(group.z, *enn, out=group.out))
    fused = fuse_evidence(_concat_sources([ev.log_q for ev in evidence]),
                          _concat_sources([ev.log_q_omega for ev in evidence]))
    loss, g_probs, g_aux = _objective(fused.probs, labels, model.class_weights, aux)
    loss = float(loss)
    if not np.isfinite(loss):
        raise TrainingDivergedError(f"non-finite loss {loss!r}")
    params.grad.fill(0.0)
    d_log_q, d_log_q_omega = fusion_vjp(fused, g_probs)
    g_aux = iter(g_aux)
    for group, w, ev in zip(groups, aux_heads, evidence):
        g_z, *g_enn = _source_vjp(ev, d_log_q, d_log_q_omega, group.out.terms)
        *enn_slots, grad_w, grad_b = group.grads
        for slot, g in zip(enn_slots, g_enn):
            slot += g
        if w is not None:
            g_z += aux_backward(group.z, next(g_aux), w, grad_w, grad_b)
        for k, g_zk in zip(group.sources, g_z):
            model.sources[k].encoder.backward(caches[k], g_zk,
                                              work.grad_model.sources[k].encoder.params)
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
        for name in ("batch_size", "max_epochs", "patience"):
            data.require_integer(name, getattr(self, name))
        data.require_seed("seed", self.seed)
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
    dropout = DropoutMasks([src.encoder for src in model.sources], min(n, config.batch_size))

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
            masks = dropout.draw(len(idx), dropout_rng)
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
        # OverflowError: a version-1 integer beyond float64's range
        except (LookupError, TypeError, ValueError, OverflowError) as exc:
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
    a faulty parameter is named with its source.  A file that cannot be
    opened raises ``data.open_input``'s DataError, also naming ``path``.
    """
    with data.open_input(path, "checkpoint") as fh:
        try:
            doc = json.load(fh)
            return model_from_json_dict(doc), doc
        # a JSONDecodeError is a ValueError
        # RecursionError: JSON nested too deeply for the parser
        except (LookupError, AttributeError, TypeError, ValueError, OverflowError,
                RecursionError, EvidFuseError) as exc:
            raise DataError(
                f"malformed checkpoint {path}: {type(exc).__name__}: {exc}") from exc

"""Multi-source fusion model: encoders, evidential layers, Dempster
fusion, the class-weighted training objective, and the training loop.

Each evidence source owns an encoder, an evidential layer, and an
auxiliary logit head.  There is one forward path and it is batched: it
encodes every source, and ``evidential.fuse_evidence`` fuses all
sources' prototype evidence in the log-commonality domain and returns
pignistic probabilities; on the training tape that fusion is one node.
Training, ``predict_probs`` and ``predict_batch`` all run it;
``predict_batch`` adds the fused and per-source masses and the pairwise
source conflict as one struct of arrays.  The exact per-sample mass
algebra they are checked against lives in the tests.

The objective is the class-weighted log loss on the fused probabilities
plus per-source class-weighted cross-entropies on the auxiliary logits,
each scaled by the source's auxiliary weight.  On the training tape it
is one node with a hand-derived VJP, so a step records a leaf per
parameter array, a node per affine layer and activation, one for the
fusion and one for the objective: 34 for an MLP and a text-head source.
Training runs mini-batch Adam with early stopping on the validation
overall loss, restoring the best-validation parameters.  Parameters
travel as name->array dicts; during training every array is a view into
one flat vector, so an Adam step is a single vectorized update.  All
forward code runs on either plain arrays (inference) or tape tensors
(training).
"""

import json
import os
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import autodiff as ad
from . import data
from .autodiff import Tape
from .encoders import (
    AuxHead,
    MlpEncoder,
    ResNetEncoder,
    TextHeadEncoder,
    encode,
    init_aux_head,
    init_encoder,
    sample_dropout_masks,
)
from .errors import ConfigError, DataError, EvidFuseError, TrainingDivergedError
from .evidential import EnnParams, evidence_batch, fuse_evidence, init_enn
from .rng import substream

PROB_FLOOR = 1e-12
CHECKPOINT_VERSION = 1
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
        if self.aux_weight < 0:
            raise ConfigError(f"source {self.name!r}: aux weight must be >= 0")
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

    @staticmethod
    def of_size(m: int) -> "Frame":
        return Frame(tuple(f"class_{c}" for c in range(m)))


@dataclass(eq=False)
class FusionModel:
    frame: Frame
    sources: list
    class_weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.class_weights, dtype=np.float64)
        if w.shape != (self.frame.m,) or np.any(w <= 0):
            raise ConfigError("class weights must be positive, one per class")
        names = [s.spec.name for s in self.sources]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate source names: {names}")
        for s in self.sources:
            if s.enn.m != self.frame.m:
                raise ConfigError(f"source {s.spec.name!r} evidential layer has wrong class count")
        object.__setattr__(self, "class_weights", w)

    @property
    def n_sources(self):
        return len(self.sources)


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


def _source_param_view(params: dict, i: int, component: str, keys) -> dict:
    return {k: params[f"src{i}.{component}.{k}"] for k in keys}


@dataclass(frozen=True)
class ParamVector:
    """Bijection between named parameter arrays and one flat vector."""

    names: tuple
    shapes: tuple
    offsets: tuple
    size: int

    @staticmethod
    def from_params(params: dict) -> "ParamVector":
        names = tuple(params.keys())
        shapes = tuple(np.shape(params[n]) for n in names)
        offsets = []
        total = 0
        for shape in shapes:
            offsets.append(total)
            total += int(np.prod(shape)) if shape else 1
        return ParamVector(names, shapes, tuple(offsets), total)

    @staticmethod
    def from_model(model: FusionModel) -> "ParamVector":
        return ParamVector.from_params(param_dict(model))

    def flatten(self, params: dict) -> np.ndarray:
        return np.concatenate(
            [np.asarray(params[n], dtype=np.float64).reshape(-1) for n in self.names]
        ) if self.names else np.zeros(0)

    def views(self, vec: np.ndarray) -> dict:
        """Named arrays that share memory with ``vec``."""
        out = {}
        for name, shape, offset in zip(self.names, self.shapes, self.offsets):
            size = int(np.prod(shape)) if shape else 1
            out[name] = vec[offset:offset + size].reshape(shape)
        return out

    def unflatten(self, vec: np.ndarray) -> dict:
        """Named copies, independent of ``vec``."""
        return {name: arr.copy() for name, arr in self.views(vec).items()}


# ---------------------------------------------------------------------------
# forward passes

def _check_inputs(model, inputs):
    if len(inputs) != model.n_sources:
        raise DataError(
            f"model has {model.n_sources} sources but got {len(inputs)} input blocks"
        )
    mats = []
    n = None
    for src, x in zip(model.sources, inputs):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != src.encoder.input_dim:
            raise DataError(
                f"source {src.spec.name!r} expects (N, {src.encoder.input_dim}) inputs, got {x.shape}"
            )
        if not np.all(np.isfinite(x)):
            raise DataError(f"source {src.spec.name!r}: non-finite input")
        if n is None:
            n = x.shape[0]
        elif x.shape[0] != n:
            raise DataError("per-source input blocks disagree on batch size")
        mats.append(x)
    return mats


def _check_labels(inputs, labels):
    if {len(x) for x in inputs} != {len(labels)}:
        raise DataError(f"{len(labels)} labels for input blocks of "
                        f"{sorted({len(x) for x in inputs})} rows")


def batch_internals(model, inputs, params=None, masks=None):
    """Fused evidence (``fused.probs`` included) and per-source aux logits.

    ``params`` substitutes leaf tensors during training; ``masks`` is a
    per-source list of dropout masks (None disables dropout).
    """
    mats = _check_inputs(model, inputs)
    evidence = []
    aux_logit_list = []
    for i, (src, x) in enumerate(zip(model.sources, mats)):
        if params is None:
            enc_p, enn_p, aux_p = src.encoder.params, src.enn.as_param_dict(), src.aux.params
        else:
            enc_p = _source_param_view(params, i, "encoder", src.encoder.params)
            enn_p = _source_param_view(params, i, "enn", src.enn.as_param_dict())
            aux_p = _source_param_view(params, i, "aux", src.aux.params)
        z = src.encoder.forward(x, params=enc_p, masks=masks[i] if masks else None)
        evidence.append(evidence_batch(z, **enn_p))
        aux_logit_list.append(src.aux.forward(z, params=aux_p))
    return fuse_evidence(evidence), aux_logit_list


def predict_batch(model: FusionModel, inputs) -> Predictions:
    """Eval-mode predictions with explanations for a whole split.

    Per-source and fused masses come from the same forward pass as the
    probabilities, so ``probs`` equals ``predict_probs`` exactly.
    """
    fused, _ = batch_internals(model, inputs)
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
    return batch_internals(model, inputs)[0].probs


# ---------------------------------------------------------------------------
# losses
#
# Both terms are class-weighted means of -log p(true class).  The array
# functions below give their values on every path; ``loss_overall``
# records the whole objective as one tape node with a hand-derived VJP.

def _true_class(labels, class_weights):
    """Row indices, labels and each row's class weight."""
    labels = np.asarray(labels)
    return np.arange(len(labels)), labels, np.asarray(class_weights)[labels]


def _weighted_nll(weights, log_p_true):
    return -(np.sum(weights * log_p_true) * (1.0 / len(weights)))


def _shifted_exp(logits):
    """Max-shifted logits, their exponentials and the row sums of those."""
    shifted = logits - np.max(logits, axis=1, keepdims=True)
    e = np.exp(shifted)
    return shifted, e, np.sum(e, axis=1, keepdims=True)


def loss_main(probs, labels, class_weights) -> float:
    """Class-weighted negative log of the predicted true-class probability."""
    rows, labels, weights = _true_class(labels, class_weights)
    return _weighted_nll(weights, np.log(np.maximum(probs[rows, labels], PROB_FLOOR)))


def loss_aux(logits, labels, class_weights) -> float:
    """Class-weighted cross entropy over softmaxed logits (max-shifted)."""
    rows, labels, weights = _true_class(labels, class_weights)
    shifted, _, total = _shifted_exp(logits)
    return _weighted_nll(weights, (shifted - np.log(total))[rows, labels])


def loss_overall(model: FusionModel, inputs, labels, params=None, masks=None):
    """Main loss plus auxiliary-weighted per-source cross entropies.

    When the forward pass ran on tape tensors the result is one node
    whose parents are the fused probabilities and the logits of every
    source with a nonzero auxiliary weight.
    """
    _check_labels(inputs, labels)
    fused, aux_logits = batch_internals(model, inputs, params=params, masks=masks)
    probs = fused.probs
    aux = [(src.spec.aux_weight, logits)
           for src, logits in zip(model.sources, aux_logits)
           if src.spec.aux_weight != 0.0]
    total = loss_main(ad.value_of(probs), labels, model.class_weights)
    for weight, logits in aux:
        total = total + weight * loss_aux(ad.value_of(logits), labels, model.class_weights)
    tensors = tuple(t for t in (probs, *(logits for _, logits in aux))
                    if isinstance(t, ad.Tensor))
    if not tensors:
        return total
    rows, labels, weights = _true_class(labels, model.class_weights)

    def bwd(g):
        # d/dp of -(1/n) w log max(p_true, floor) is c / p_true with
        # c = -(1/n) w, zero where the floor clamps; d/dlogits of an aux
        # term is -(a/n) w (onehot - softmax).  The factors are grouped as
        # in the chained-op reference, so both round alike.
        n = len(rows)
        if isinstance(probs, ad.Tensor):
            coef = -g * (1.0 / n) * weights
            p_true = probs.value[rows, labels]
            g_probs = np.zeros_like(probs.value)
            g_probs[rows, labels] = np.where(p_true > PROB_FLOOR,
                                             coef / np.maximum(p_true, PROB_FLOOR), 0.0)
            probs._accumulate(g_probs)
        for weight, logits in aux:
            if isinstance(logits, ad.Tensor):
                coef = -(g * weight) * (1.0 / n) * weights
                _, e, row_sums = _shifted_exp(logits.value)
                g_logits = (-coef[:, None] / row_sums) * e
                g_logits[rows, labels] += coef
                logits._accumulate(g_logits)

    return ad.Tensor(total, tensors[0].tape, bwd=bwd)


def make_dropout_masks(model: FusionModel, n: int, rng) -> list:
    return [
        sample_dropout_masks(src.encoder, n, rng)
        for src in model.sources
    ]


def loss_and_grad(model: FusionModel, inputs, labels, params=None, masks=None):
    """Overall loss and its gradient for every trainable parameter.

    Frozen inputs (e.g. precomputed text embeddings) are data, not
    parameters, so they never get gradient slots.
    """
    if params is None:
        params = param_dict(model)
    tape = Tape()
    leaves = {name: tape.leaf(arr) for name, arr in params.items()}
    loss_t = loss_overall(model, inputs, labels, params=leaves, masks=masks)
    loss_value = float(loss_t.value)
    if not np.isfinite(loss_value):
        raise TrainingDivergedError(f"non-finite loss {loss_value!r}")
    tape.backward(loss_t)
    grads = {
        name: (leaf.grad if leaf.grad is not None else np.zeros_like(leaf.value))
        for name, leaf in leaves.items()
    }
    return loss_value, grads


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
        if self.learning_rate < 0:
            raise ConfigError("learning rate must be >= 0")


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
    _check_labels(train_inputs, train_labels)
    _check_labels(val_inputs, val_labels)

    shuffle_rng = substream(config.seed, "shuffle")
    dropout_rng = substream(config.seed, "dropout")

    layout = ParamVector.from_model(model)
    flat = layout.flatten(param_dict(model))
    params = layout.views(flat)      # every step updates these in place
    adam = Adam(layout.size, config)

    best_flat = flat.copy()
    best_val = float("inf")
    best_epoch = -1
    history = []
    wait = 0

    def fail(message):
        raise TrainingDivergedError(
            message,
            checkpoint=with_params(model, layout.unflatten(best_flat)),
            history=history,
        )

    for epoch in range(config.max_epochs):
        order = shuffle_rng.permutation(n)
        train_loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            batch_inputs = [x[idx] for x in train_inputs]
            masks = make_dropout_masks(model, len(idx), dropout_rng)
            try:
                loss, grads = loss_and_grad(model, batch_inputs, train_labels[idx],
                                            params=params, masks=masks)
            except TrainingDivergedError:
                fail(f"training loss diverged at epoch {epoch}")
            train_loss_sum += loss * len(idx)
            adam.update(flat, layout.flatten(grads))
        val_loss = float(ad.value_of(
            loss_overall(model, val_inputs, val_labels, params=params)
        ))
        if not np.isfinite(val_loss):
            fail(f"validation loss diverged at epoch {epoch}")
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
        model=with_params(model, layout.unflatten(best_flat)),
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
    train_labels = np.asarray(train_labels)
    weights = data.class_weights(train_labels, frame.m)
    sources = []
    overrides = encoder_overrides or {}
    for spec, x in zip(specs, train_inputs):
        x = np.asarray(x, dtype=np.float64)
        encoder = init_encoder(spec.encoder_kind, x.shape[1],
                               substream(seed, f"init.encoder.{spec.name}"),
                               **overrides.get(spec.name, {}))
        z = encode(encoder, x)
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


def _component_to_json(component, **extra) -> dict:
    """An encoder's or aux head's dataclass fields, parameters as lists."""
    doc = {f.name: getattr(component, f.name) for f in fields(component)}
    doc["params"] = {k: v.tolist() for k, v in component.params.items()}
    return {**doc, **extra}


def _component_from_json(cls, doc: dict):
    kwargs = {f.name: doc[f.name] for f in fields(cls)}
    kwargs["params"] = {k: np.asarray(v, dtype=np.float64) for k, v in doc["params"].items()}
    return cls(**kwargs)


def model_to_json_dict(model: FusionModel, config_hash: str = "", extra=None) -> dict:
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "config_hash": config_hash,
        "frame": {"labels": list(model.frame.labels)},
        "class_weights": model.class_weights.tolist(),
        "sources": [
            {
                "spec": asdict(src.spec),
                "encoder": _component_to_json(src.encoder, kind=src.encoder.kind),
                "enn": {k: v.tolist() for k, v in src.enn.as_param_dict().items()},
                "aux": _component_to_json(src.aux),
            }
            for src in model.sources
        ],
    }
    if extra:
        doc["extra"] = extra
    return doc


def model_from_json_dict(doc: dict) -> FusionModel:
    if doc.get("format_version") != CHECKPOINT_VERSION:
        raise DataError(f"unsupported checkpoint version {doc.get('format_version')!r}")
    frame = Frame(tuple(doc["frame"]["labels"]))
    sources = []
    for sd in doc["sources"]:
        encoder = _component_from_json(_ENCODER_CLASSES[sd["encoder"]["kind"]], sd["encoder"])
        enn = EnnParams.from_param_dict(
            {k: np.asarray(v, dtype=np.float64) for k, v in sd["enn"].items()}
        )
        aux = _component_from_json(AuxHead, sd["aux"])
        sources.append(FusionSource(SourceSpec(**sd["spec"]), encoder, enn, aux))
    return FusionModel(frame, sources, np.asarray(doc["class_weights"], dtype=np.float64))


def save_checkpoint(model: FusionModel, path: str, config_hash: str = "", extra=None):
    doc = model_to_json_dict(model, config_hash=config_hash, extra=extra)
    tmp = f"{path}.tmp"
    # json.dumps runs the C encoder; json.dump to a file always runs the
    # pure-Python one
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    os.replace(tmp, path)


def load_checkpoint(path: str):
    """Returns (model, full checkpoint document)."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return model_from_json_dict(doc), doc
    except FileNotFoundError as exc:
        raise DataError(f"checkpoint not found: {path}") from exc
    # a JSONDecodeError is a ValueError
    except (LookupError, AttributeError, TypeError, ValueError, EvidFuseError) as exc:
        raise DataError(f"malformed checkpoint {path}: {type(exc).__name__}: {exc}") from exc

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
each scaled by the source's auxiliary weight.  Training runs mini-batch
Adam with early stopping on the validation overall loss, restoring the
best-validation parameters.  Parameters travel as name->array dicts;
during training every array is a view into one flat vector, so an Adam
step is a single vectorized update.  All forward code runs on either
plain arrays (inference) or tape tensors (training).
"""

import json
import os
from dataclasses import dataclass, field, fields

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
from .errors import ConfigError, DataError, TrainingDivergedError
from .evidential import EnnParams, evidence_batch, fuse_evidence, init_enn
from .masses import Frame
from .rng import substream

PROB_FLOOR = 1e-12
CHECKPOINT_VERSION = 1


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

    def to_json_dict(self):
        return {
            "name": self.name,
            "encoder_kind": self.encoder_kind,
            "aux_weight": self.aux_weight,
            "feature_names": list(self.feature_names) if self.feature_names else None,
        }

    @staticmethod
    def from_json_dict(d):
        return SourceSpec(d["name"], d["encoder_kind"], d["aux_weight"],
                          tuple(d["feature_names"]) if d.get("feature_names") else None)


@dataclass(eq=False)
class FusionSource:
    spec: SourceSpec
    encoder: object
    enn: EnnParams
    aux: AuxHead


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
        encoder = type(src.encoder)(**{**src.encoder.__dict__, "params": enc_params})
        enn = EnnParams.from_param_dict(
            {k: np.asarray(params[f"src{i}.enn.{k}"]) for k in src.enn.as_param_dict()}
        )
        aux_params = {k: np.asarray(params[f"src{i}.aux.{k}"]) for k in src.aux.params}
        aux = AuxHead(params=aux_params, input_dim=src.aux.input_dim, n_classes=src.aux.n_classes)
        sources.append(FusionSource(src.spec, encoder, enn, aux))
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

    def entry_label(self, flat_index: int) -> str:
        for name, shape, offset in zip(self.names, self.shapes, self.offsets):
            size = int(np.prod(shape)) if shape else 1
            if offset <= flat_index < offset + size:
                coords = np.unravel_index(flat_index - offset, shape) if shape else ()
                suffix = "[" + ",".join(str(c) for c in coords) + "]" if coords else ""
                return f"{name}{suffix}"
        raise IndexError(f"flat index {flat_index} out of range 0..{self.size - 1}")


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
        if n is None:
            n = x.shape[0]
        elif x.shape[0] != n:
            raise DataError("per-source input blocks disagree on batch size")
        mats.append(x)
    return mats


def batch_internals(model, inputs, params=None, masks=None):
    """Fused evidence (probabilities included) and per-source aux logits.

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
    fused = fuse_evidence(evidence)
    return {
        "fused": fused,
        "probs": fused.probs,
        "aux_logits": aux_logit_list,
    }


def predict_batch(model: FusionModel, inputs) -> Predictions:
    """Eval-mode predictions with explanations for a whole split.

    Per-source and fused masses come from the same forward pass as the
    probabilities, so ``probs`` equals ``predict_probs`` exactly.
    """
    fused = batch_internals(model, inputs)["fused"]
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
    return batch_internals(model, inputs)["probs"]


# ---------------------------------------------------------------------------
# losses

def loss_main(probs, labels, class_weights):
    """Class-weighted negative log of the predicted true-class probability."""
    m = len(ad.value_of(class_weights))
    onehot = np.eye(m)[np.asarray(labels)]
    weights = onehot @ np.asarray(ad.value_of(class_weights))
    p_true = ad.sum_along(probs * onehot, axis=1)
    return -ad.mean_all(weights * ad.log(ad.maximum(p_true, PROB_FLOOR)))


def loss_aux(logits, labels, class_weights):
    """Class-weighted cross entropy over softmaxed logits (max-shifted)."""
    m = len(ad.value_of(class_weights))
    onehot = np.eye(m)[np.asarray(labels)]
    weights = onehot @ np.asarray(ad.value_of(class_weights))
    shifted = logits - np.max(ad.value_of(logits), axis=1, keepdims=True)
    log_norm = ad.log(ad.sum_along(ad.exp(shifted), axis=1, keepdims=True))
    log_probs = shifted - log_norm
    return -ad.mean_all(weights * ad.sum_along(onehot * log_probs, axis=1))


def loss_overall(model: FusionModel, inputs, labels, params=None, masks=None):
    """Main loss plus auxiliary-weighted per-source cross entropies."""
    internals = batch_internals(model, inputs, params=params, masks=masks)
    total = loss_main(internals["probs"], labels, model.class_weights)
    for src, logits in zip(model.sources, internals["aux_logits"]):
        if src.spec.aux_weight != 0.0:
            total = total + src.spec.aux_weight * loss_aux(logits, labels, model.class_weights)
    return total


def make_dropout_masks(model: FusionModel, n: int, rng) -> list:
    return [
        sample_dropout_masks(src.encoder, n, src.encoder.dropout, rng)
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
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
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
        self.config = config
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.step = 0

    def update(self, flat: np.ndarray, grad: np.ndarray):
        c = self.config
        self.step += 1
        correction = np.sqrt(1.0 - c.adam_beta2 ** self.step) / (1.0 - c.adam_beta1 ** self.step)
        self.m *= c.adam_beta1
        self.m += (1.0 - c.adam_beta1) * grad
        self.v *= c.adam_beta2
        self.v += (1.0 - c.adam_beta2) * (grad * grad)
        flat -= c.learning_rate * correction * self.m / (np.sqrt(self.v) + c.adam_eps)


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
        enn = init_enn(z, train_labels, prototypes, enn_seed, m=frame.m)
        aux = init_aux_head(encoder.output_dim, frame.m,
                            substream(seed, f"init.aux.{spec.name}"))
        sources.append(FusionSource(spec, encoder, enn, aux))
    return FusionModel(frame, sources, weights)


_ENCODER_CLASSES = {"mlp": MlpEncoder, "resnet": ResNetEncoder, "text-head": TextHeadEncoder}


def _encoder_to_json(encoder):
    meta = {
        "kind": encoder.kind,
        "input_dim": encoder.input_dim,
        "hidden_dim": encoder.hidden_dim,
        "output_dim": encoder.output_dim,
        "dropout": encoder.dropout,
        "params": {k: v.tolist() for k, v in encoder.params.items()},
    }
    if isinstance(encoder, ResNetEncoder):
        meta["n_blocks"] = encoder.n_blocks
    return meta


def _encoder_from_json(meta):
    cls = _ENCODER_CLASSES[meta["kind"]]
    params = {k: np.asarray(v, dtype=np.float64) for k, v in meta["params"].items()}
    kwargs = dict(params=params, input_dim=meta["input_dim"],
                  hidden_dim=meta["hidden_dim"], output_dim=meta["output_dim"],
                  dropout=meta["dropout"])
    if meta["kind"] == "resnet":
        kwargs["n_blocks"] = meta["n_blocks"]
    return cls(**kwargs)


def model_to_json_dict(model: FusionModel, config_hash: str = "", extra=None) -> dict:
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "config_hash": config_hash,
        "frame": {"labels": list(model.frame.labels)},
        "class_weights": model.class_weights.tolist(),
        "sources": [
            {
                "spec": src.spec.to_json_dict(),
                "encoder": _encoder_to_json(src.encoder),
                "enn": {k: v.tolist() for k, v in src.enn.as_param_dict().items()},
                "aux": {
                    "input_dim": src.aux.input_dim,
                    "n_classes": src.aux.n_classes,
                    "params": {k: v.tolist() for k, v in src.aux.params.items()},
                },
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
        spec = SourceSpec.from_json_dict(sd["spec"])
        encoder = _encoder_from_json(sd["encoder"])
        enn = EnnParams.from_param_dict(
            {k: np.asarray(v, dtype=np.float64) for k, v in sd["enn"].items()}
        )
        aux = AuxHead(
            params={k: np.asarray(v, dtype=np.float64) for k, v in sd["aux"]["params"].items()},
            input_dim=sd["aux"]["input_dim"],
            n_classes=sd["aux"]["n_classes"],
        )
        sources.append(FusionSource(spec, encoder, enn, aux))
    return FusionModel(frame, sources, np.asarray(doc["class_weights"], dtype=np.float64))


def save_checkpoint(model: FusionModel, path: str, config_hash: str = "", extra=None):
    doc = model_to_json_dict(model, config_hash=config_hash, extra=extra)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
    os.replace(tmp, path)


def load_checkpoint(path: str):
    """Returns (model, full checkpoint document)."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return model_from_json_dict(doc), doc

"""Shared test utilities: gradient checking, small model fixtures, a
mixed-type dataset, the exact per-sample reference for the evidential
layer and the fused prediction, taped reference implementations of the
batched evidence, the fusion and the training objective, the tape
training step that is ``loss_and_grad``'s byte oracle (with flat or
per-name gradients), the evidential layer and its VJP with
fresh arrays, the per-cluster loops of k-means and the evidential-layer
init, the version-1 text files as ``csv.writer`` and ``json.dumps``
write them, a written manifest rewritten as version 1 or with a tampered
binary file, a checkpoint rewritten as version 1, the dataset read
from the text files line by line, and the metrics report computed one
metric at a time, each checking its inputs and sorting on its own."""

import base64
import csv
import hashlib
import io
import json
import math
import os
import re

import numpy as np
import pytest

from evidfuse.autodiff import Tape
from evidfuse.data import (SPLIT_NAMES, Dataset, FeatureSpec, load_dataset, split_indices,
                           write_json)
from evidfuse.encoders import DropoutMasks, encode_blocks
from evidfuse.errors import DataError
from evidfuse.metrics import NLL_CLAMP, ConfusionCounts, MetricsReport, rates
from evidfuse.evidential import (INIT_SUPPORT_RAW, KMEANS_ITERS, EnnParams, FusedEvidence,
                                 SourceEvidence, _shifted_commonalities)
from evidfuse.model import (PROB_FLOOR, FlatParams, Frame, FusionModel, Predictions, SourceSpec,
                            _weighted_nll, init_model, param_dict)
import tape_ops as ad
from reference import (SimpleMass, beta, combine_many, degree_of_conflict, frame_of_size, gamma,
                       membership, pignistic)


def tiny_fusion_setup(seed=0, n=40, d_struct=4, d_text=3, prototypes=3,
                      separation=2.0, encoder_kind="mlp", hidden=8):
    """A small two-source model plus the data it was initialized on.

    Both sources carry class signal along their first axis so short
    training runs make visible progress.
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    shift = (labels * 2 - 1)[:, None] * separation / 2.0
    x_struct = rng.normal(size=(n, d_struct))
    x_struct[:, :1] += shift
    x_text = rng.normal(size=(n, d_text))
    x_text[:, :1] += shift
    specs = [
        SourceSpec("struct", encoder_kind, aux_weight=2.0),
        SourceSpec("notes", "text-head", aux_weight=1.0),
    ]
    overrides = {
        "struct": {"output_dim": hidden},
        "notes": {"hidden_dim": hidden, "output_dim": hidden},
    }
    if encoder_kind == "mlp":
        overrides["struct"]["hidden_dim"] = hidden
    model = init_model(frame_of_size(2), specs, [x_struct, x_text], labels,
                       seed=seed, prototypes=prototypes, encoder_overrides=overrides)
    return model, [x_struct, x_text], labels


def many_source_setup(prototypes, seed=0, n=40, d=4, hidden=8, encoder_kind="resnet"):
    """A model of one source per entry of ``prototypes``, each with that
    many prototypes over its own d features, plus the data it was
    initialized on; every source carries class signal on its first axis."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    inputs, sources = [], []
    for i, h in enumerate(prototypes):
        x = rng.normal(size=(n, d))
        x[:, :1] += labels[:, None] - 0.5
        spec = SourceSpec(f"source{i}", encoder_kind, aux_weight=1.0 + i)
        part = init_model(frame_of_size(2), [spec], [x], labels, seed=seed + i, prototypes=h,
                          encoder_overrides={spec.name: {"output_dim": hidden}})
        inputs.append(x)
        sources += part.sources
    return FusionModel(part.frame, sources, part.class_weights), inputs, labels


def mixed_dataset(n=120, seed=0, embeddings=True):
    """Numerical and categorical features with missing cells, a constant
    column, and (optionally) note embeddings."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 2
    num = rng.normal(size=(n, 2)) + labels[:, None]
    num[rng.random((n, 2)) < 0.1] = np.nan
    cat = np.array(["a", "b", "c"], dtype=object)[(rng.integers(0, 3, size=(n, 2))
                                                   + labels[:, None]) % 3]
    cat[rng.random((n, 2)) < 0.1] = None
    return Dataset(
        schema=(FeatureSpec("n0", "numerical"), FeatureSpec("c0", "categorical"),
                FeatureSpec("flat", "numerical"), FeatureSpec("n1", "numerical"),
                FeatureSpec("c1", "categorical")),
        ids=[f"p{i}" for i in range(n)],
        columns=[num[:, 0], cat[:, 0], np.ones(n), num[:, 1], cat[:, 1]],
        labels=labels,
        embeddings=rng.normal(size=(n, 3)) + labels[:, None] if embeddings else None,
    )


def finite_difference_gradients(f, arrays, step=1e-6):
    """Central differences of a scalar function over a list of arrays."""
    grads = []
    for k, base in enumerate(arrays):
        g = np.zeros_like(base, dtype=np.float64)
        flat = g.reshape(-1)
        for i in range(base.size):
            plus = [a.copy() for a in arrays]
            minus = [a.copy() for a in arrays]
            plus[k].reshape(-1)[i] += step
            minus[k].reshape(-1)[i] -= step
            flat[i] = (float(f(*plus)) - float(f(*minus))) / (2.0 * step)
        grads.append(g)
    return grads


def check_gradients(f, arrays, tol=1e-6, step=1e-6):
    """Tape gradients of f(*arrays) must match central differences.

    f is evaluated both on leaf tensors and on the plain arrays, so the
    two dispatch paths are also checked for value agreement.
    """
    tape = Tape()
    leaves = [tape.leaf(a) for a in arrays]
    out = f(*leaves)
    assert isinstance(out, ad.Tensor)
    tape.backward(out)
    numeric = finite_difference_gradients(f, arrays, step=step)
    for leaf, fd in zip(leaves, numeric):
        got = leaf.grad if leaf.grad is not None else np.zeros_like(fd)
        np.testing.assert_allclose(got, fd, rtol=tol, atol=tol)
    assert float(f(*arrays)) == pytest.approx(float(out.value), abs=1e-14)


def product_evidence_batch(x, prototypes, scale_raw, support_raw, membership_raw):
    """Reference evidential layer built from taped ops: the H prototype
    masses fused by the commonality product in the linear domain.

    Accepts tape tensors or plain arrays; returns (singletons (N, M),
    ignorance (N, 1)).  The products underflow for many strongly
    activated prototypes, so compare against it at moderate sizes only.
    """
    n = np.shape(ad.value_of(x))[0]
    h = np.shape(ad.value_of(prototypes))[0]

    gamma = scale_raw * scale_raw
    beta = ad.sigmoid(support_raw)
    mraw = membership_raw - np.max(ad.value_of(membership_raw), axis=1, keepdims=True)
    mexp = ad.exp(mraw)
    u = mexp / ad.sum_along(mexp, axis=1, keepdims=True)            # (H, M)

    x2 = ad.sum_along(x * x, axis=1, keepdims=True)                  # (N, 1)
    p2 = ad.sum_along(prototypes * prototypes, axis=1)               # (H,)
    d2 = x2 - 2.0 * (x @ ad.transpose(prototypes)) + p2              # (N, H)
    s = beta * ad.exp(-(gamma * d2))                                 # (N, H)

    s3 = ad.reshape(s, (n, h, 1))
    ignorance = 1.0 - s3                                             # (N, H, 1)
    commonality = u * s3 + ignorance                                 # (N, H, M)
    q_prod = ad.prod_along(commonality, axis=1)                      # (N, M)
    ign_prod = ad.prod_along(ignorance, axis=1)                      # (N, 1)
    singletons = q_prod - ign_prod
    denom = ad.sum_along(singletons, axis=1, keepdims=True) + ign_prod
    return singletons / denom, ign_prod / denom


def combine_batch(pairs):
    """Reference pairwise Dempster fold over (singletons, ignorance) batch
    pairs, built from taped ops."""
    singles, ign = pairs[0]
    for s, g in pairs[1:]:
        cross = singles * s + singles * g + s * ign
        ign = ign * g
        denom = ad.sum_along(cross, axis=1, keepdims=True) + ign
        singles = cross / denom
        ign = ign / denom
    return singles, ign


# ---------------------------------------------------------------------------
# the objective's terms one at a time, the per-mask dropout draw

def _true_class(labels, class_weights):
    """Row indices, labels and each row's class weight."""
    labels = np.asarray(labels)
    return np.arange(len(labels)), labels, np.asarray(class_weights)[labels]


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


def sample_dropout_masks(encoder, n: int, rng) -> list:
    """Inverted-scaling dropout masks at the encoder's rate for one step,
    one draw per mask: the oracle of ``encoders.DropoutMasks``."""
    rate = encoder.dropout
    if rate <= 0.0:
        return [np.ones(shape) for shape in encoder.dropout_shapes(n)]
    keep = 1.0 - rate
    return [
        (rng.random(shape) >= rate).astype(np.float64) / keep
        for shape in encoder.dropout_shapes(n)
    ]


def make_dropout_masks(model, n: int, rng) -> list:
    """Each source's dropout masks for an n-row step, drawn as ``train``
    draws them, in fresh storage."""
    return DropoutMasks([src.encoder for src in model.sources], n).draw(n, rng)


def chained_loss_main(probs, labels, class_weights):
    """Reference main loss from taped ops: class-weighted negative log of
    the predicted true-class probability."""
    m = len(ad.value_of(class_weights))
    onehot = np.eye(m)[np.asarray(labels)]
    weights = onehot @ np.asarray(ad.value_of(class_weights))
    p_true = ad.sum_along(probs * onehot, axis=1)
    return -ad.mean_all(weights * ad.log(ad.maximum(p_true, PROB_FLOOR)))


def chained_loss_aux(logits, labels, class_weights):
    """Reference aux loss from taped ops: class-weighted cross entropy
    over softmaxed logits (max-shifted)."""
    m = len(ad.value_of(class_weights))
    onehot = np.eye(m)[np.asarray(labels)]
    weights = onehot @ np.asarray(ad.value_of(class_weights))
    shifted = logits - np.max(ad.value_of(logits), axis=1, keepdims=True)
    log_norm = ad.log(ad.sum_along(ad.exp(shifted), axis=1, keepdims=True))
    log_probs = shifted - log_norm
    return -ad.mean_all(weights * ad.sum_along(onehot * log_probs, axis=1))


def chained_loss_overall(model, inputs, labels, params=None, masks=None):
    """Reference objective: the chained main loss plus each source's
    chained aux loss scaled by its (nonzero) aux weight, on the taped
    forward (``params`` maps each ``param_dict`` name to a tape leaf or an
    array; by default the model's own arrays)."""
    fused, aux_logits = taped_batch_internals(
        model, inputs, param_dict(model) if params is None else params, masks)
    total = chained_loss_main(fused.probs, labels, model.class_weights)
    for src, logits in zip(model.sources, aux_logits):
        if src.spec.aux_weight != 0.0:
            total = total + src.spec.aux_weight * chained_loss_aux(logits, labels,
                                                                   model.class_weights)
    return total


# ---------------------------------------------------------------------------
# the training step as a tape records it: the taped encoder forwards, one
# node for the fusion and one for the objective, each with the
# hand-derived VJP that evidfuse's backward passes now run without a tape.
# loss_and_grad must return its loss and the bytes of its gradients

def taped_encoder_forward(encoder, x, params, masks=None):
    """An encoder's forward on ``params`` (name -> tape leaf or array):
    one ``linear_relu`` node per hidden layer (affine map, ReLU and
    dropout mask), one ``linear`` per output layer, and the residual adds."""
    p = params
    if encoder.kind == "mlp":
        masks = masks or (None, None)
        h = ad.linear_relu(x, p["w0"], p["b0"], masks[0])
        h = ad.linear_relu(h, p["w1"], p["b1"], masks[1])
        return ad.linear(h, p["w2"], p["b2"])
    if encoder.kind == "resnet":
        masks = masks or (None,) * encoder.n_blocks
        h = ad.linear(x, p["w_in"], p["b_in"])
        for k in range(encoder.n_blocks):
            inner = ad.linear_relu(h, p[f"block{k}.w1"], p[f"block{k}.b1"], masks[k])
            h = h + ad.linear(inner, p[f"block{k}.w2"], p[f"block{k}.b2"])
        return h
    h = ad.linear_relu(x, p["w0"], p["b0"])
    return ad.linear(h, p["w1"], p["b1"])


def taped_fuse_evidence(evidence):
    """``fuse_evidence`` of sources whose inputs may be tape tensors:
    ``probs`` is then one node whose parents are all of those tensors and
    whose backward is the hand-derived VJP (``reference_source_vjp`` per
    source)."""
    evidence = list(evidence)
    log_q = evidence[0].log_q
    log_q_omega = evidence[0].log_q_omega
    for ev in evidence[1:]:
        log_q = log_q + ev.log_q
        log_q_omega = log_q_omega + ev.log_q_omega
    q, q_omega, total = _shifted_commonalities(log_q, log_q_omega)
    m = q.shape[1]
    probs = (q - q_omega) / total + (q_omega / total) / m
    stacked = (np.stack([ev.log_q for ev in evidence]),
               np.stack([ev.log_q_omega for ev in evidence]))
    fused = FusedEvidence(probs, log_q, log_q_omega, *stacked, q, q_omega, total)
    tensors = tuple(t for ev in evidence for t in ev.inputs if isinstance(t, ad.Tensor))
    if not tensors:
        return fused

    def bwd(g):
        # probs_c = (q_c - (1 - 1/M) q_Omega) / total; the max-shift cancels
        g_dot_p = np.add.reduce(g * probs, axis=1, keepdims=True)
        d_log_q = (g - g_dot_p) / total * q
        d_log_q_omega = ((m - 1) * g_dot_p
                         - (1.0 - 1.0 / m) * np.add.reduce(g, axis=1, keepdims=True)
                         ) / total * q_omega
        for ev in evidence:
            for t, grad in zip(ev.inputs, reference_source_vjp(ev, d_log_q, d_log_q_omega)):
                if isinstance(t, ad.Tensor):
                    t._accumulate(grad)

    node = ad.Tensor(probs, tensors[0].tape, bwd=bwd)
    return FusedEvidence(node, log_q, log_q_omega, *stacked, q, q_omega, total)


def taped_batch_internals(model, inputs, params, masks=None):
    """Fused evidence and per-source aux logits of the taped forward, the
    encoders on the whole batch; ``params`` maps each ``param_dict`` name
    to a tape leaf or an array."""
    evidence, aux_logits = [], []
    for i, (src, x) in enumerate(zip(model.sources, inputs)):
        def view(component, keys):
            return {k: params[f"src{i}.{component}.{k}"] for k in keys}

        z = taped_encoder_forward(src.encoder, x, view("encoder", src.encoder.params),
                                  masks[i] if masks else None)
        evidence.append(reference_evidence_batch(z, **view("enn", src.enn.as_param_dict())))
        aux = view("aux", src.aux.params)
        aux_logits.append(ad.linear(z, aux["w"], aux["b"]))
    return taped_fuse_evidence(evidence), aux_logits


def taped_objective(probs, aux, labels, class_weights):
    """The objective as one tape node whose parents are the fused
    probabilities and the logits of ``aux``, (nonzero aux weight, (N, M)
    logits tensor) pairs, with its hand-derived VJP."""
    total = loss_main(ad.value_of(probs), labels, class_weights)
    for weight, logits in aux:
        total = total + weight * loss_aux(ad.value_of(logits), labels, class_weights)
    rows, labels, weights = _true_class(labels, class_weights)

    def bwd(g):
        # d/dp of -(1/n) w log max(p_true, floor) is c / p_true with
        # c = -(1/n) w, zero where the floor clamps; d/dlogits of an aux
        # term is -(a/n) w (onehot - softmax)
        n = len(rows)
        coef = -g * (1.0 / n) * weights
        p_true = probs.value[rows, labels]
        g_probs = np.zeros_like(probs.value)
        g_probs[rows, labels] = np.where(p_true > PROB_FLOOR,
                                         coef / np.maximum(p_true, PROB_FLOOR), 0.0)
        probs._accumulate(g_probs)
        for weight, logits in aux:
            coef = -(g * weight) * (1.0 / n) * weights
            _, e, row_sums = _shifted_exp(logits.value)
            g_logits = (-coef[:, None] / row_sums) * e
            g_logits[rows, labels] += coef
            logits._accumulate(g_logits)

    return ad.Tensor(total, probs.tape, bwd=bwd)


def taped_loss_overall(model, inputs, labels, params, masks=None):
    """The objective on the taped forward: one node whose parents are the
    fused probabilities and the logits of every source with a nonzero
    auxiliary weight."""
    fused, aux_logits = taped_batch_internals(model, inputs, params, masks)
    aux = [(src.spec.aux_weight, logits)
           for src, logits in zip(model.sources, aux_logits)
           if src.spec.aux_weight != 0.0]
    return taped_objective(fused.probs, aux, labels, model.class_weights)


def taped_loss_and_grad(model, inputs, labels, masks=None, tape=None):
    """The tape step whose loss and gradient bytes ``loss_and_grad`` must
    give: each parameter's leaf, on ``tape`` (a fresh one by default),
    takes a zeroed view of one flat gradient vector as its gradient slot.
    Returns (loss, flat gradient in ``param_dict`` order)."""
    slots = FlatParams.from_model(model)
    tape = ad.Tape() if tape is None else tape
    leaves = {}
    for (name, value), slot in zip(slots.params.items(), slots.grads.values()):
        leaf = leaves[name] = tape.leaf(value)
        leaf.grad = slot
    loss = taped_loss_overall(model, inputs, labels, leaves, masks)
    tape.backward(loss)
    return float(loss.value), slots.grad


def reference_loss_and_grad(model, inputs, labels, masks=None):
    """The tape step with per-name gradients: a plain leaf per parameter
    (the tape copies its first gradient), zeros for a parameter the loss
    does not reach, then the named gradients concatenated in
    ``param_dict`` order.  Returns (loss, flat gradient)."""
    params = param_dict(model)
    tape = Tape()
    leaves = {name: tape.leaf(arr) for name, arr in params.items()}
    loss = taped_loss_overall(model, inputs, labels, leaves, masks)
    tape.backward(loss)
    grads = {name: leaf.grad if leaf.grad is not None else np.zeros_like(leaf.value)
             for name, leaf in leaves.items()}
    return float(loss.value), np.concatenate([g.reshape(-1) for g in grads.values()])


# ---------------------------------------------------------------------------
# exact per-sample reference: one SimpleMass per prototype, fused pairwise

def prototype_activations(x: np.ndarray, params: EnnParams) -> np.ndarray:
    """Distance-discounted activation of every prototype for one input."""
    x = np.asarray(x, dtype=np.float64)
    d = params.prototypes.shape[1]
    if x.shape != (d,):
        raise DataError(f"input has shape {x.shape}, prototypes expect ({d},)")
    if not np.all(np.isfinite(x)):
        raise DataError("non-finite input vector")
    d2 = np.sum((x - params.prototypes) ** 2, axis=1)
    return beta(params) * np.exp(-gamma(params) * d2)


def prototype_mass(activation: float, membership: np.ndarray,
                   frame: Frame | None = None) -> SimpleMass:
    """One prototype's evidence: activation split by class membership."""
    membership = np.asarray(membership, dtype=np.float64)
    if frame is None:
        frame = frame_of_size(len(membership))
    if not 0.0 <= activation <= 1.0:
        raise DataError(f"activation {activation!r} outside [0, 1]")
    return SimpleMass(frame, membership * activation, 1.0 - activation)


def enn_forward(x: np.ndarray, params: EnnParams, frame: Frame | None = None) -> SimpleMass:
    """Fuse all prototype evidence for one input by Dempster's rule."""
    if frame is None:
        frame = frame_of_size(params.m)
    s = prototype_activations(x, params)
    u = membership(params)
    return combine_many([prototype_mass(s[h], u[h], frame) for h in range(len(s))])


def exact_prediction(model, sample_inputs):
    """One sample's prediction through the exact mass algebra, as a
    one-row ``Predictions`` (fields without the sample axis)."""
    per_source = [enn_forward(encode_blocks(src.encoder, x[None])[0], src.enn, model.frame)
                  for src, x in zip(model.sources, sample_inputs)]
    fused = combine_many(per_source)
    k = len(per_source)
    conflict = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            conflict[i, j] = conflict[j, i] = degree_of_conflict(per_source[i], per_source[j])
    return Predictions(
        probs=pignistic(fused),
        singletons=fused.singletons,
        ignorance=np.float64(fused.ignorance),
        source_singletons=np.stack([m.singletons for m in per_source]),
        source_ignorance=np.array([m.ignorance for m in per_source]),
        conflict=conflict,
    )


# ---------------------------------------------------------------------------
# the evidential layer and its VJP written with fresh arrays: the in-place
# kernels in evidfuse.evidential must match them byte for byte

def reference_evidence_batch(z, prototypes, scale_raw, support_raw, membership_raw):
    """``evidence_batch`` with one new array per operation."""
    inputs = (z, prototypes, scale_raw, support_raw, membership_raw)
    zv, p, a, b, r = (np.asarray(ad.value_of(t), dtype=np.float64) for t in inputs)
    beta = 1.0 / (1.0 + np.exp(-b))
    mexp = np.exp(r - np.maximum.reduce(r, axis=1, keepdims=True))
    u = mexp / np.add.reduce(mexp, axis=1, keepdims=True)
    d2 = np.maximum(
        np.add.reduce(zv * zv, axis=1, keepdims=True) - 2.0 * (zv @ p.T)
        + np.add.reduce(p * p, axis=1),
        0.0,
    )
    e = np.exp(-(a * a) * d2)
    s = beta * e
    terms = (1.0 - u).T.copy()[:, None, :] * s
    np.negative(terms, out=terms)
    np.log1p(terms, out=terms)
    log_q = np.add.reduce(terms, axis=2).T
    log_q_omega = np.add.reduce(np.log1p(-s), axis=1, keepdims=True)
    return SourceEvidence(inputs, log_q, log_q_omega, d2, e, s, beta, u)


def reference_source_vjp(ev, d_log_q, d_log_q_omega):
    """``_source_vjp`` with one new array per operation."""
    zv, p, a = (np.asarray(ad.value_of(t), dtype=np.float64) for t in ev.inputs[:3])
    s, u, d2 = ev.activation, ev.membership, ev.sq_dist
    w = (1.0 - u).T.copy()
    t = w[:, None, :] * s
    np.subtract(1.0, t, out=t)
    np.divide(d_log_q.T[:, :, None], t, out=t)
    g_s = -np.einsum("cnh,ch->nh", t, w) - d_log_q_omega / (1.0 - s)
    g_u = np.einsum("cnh,nh->hc", t, s)
    g_r = u * (g_u - np.add.reduce(g_u * u, axis=1, keepdims=True))
    g_b = np.add.reduce(g_s * ev.closeness, axis=0) * ev.beta * (1.0 - ev.beta)
    g_exponent = -g_s * s
    g_a = 2.0 * a * np.add.reduce(g_exponent * d2, axis=0)
    g_d2 = np.where(d2 > 0.0, g_exponent * (a * a), 0.0)
    g_z = 2.0 * (zv * np.add.reduce(g_d2, axis=1, keepdims=True) - g_d2 @ p)
    g_p = 2.0 * (p * np.add.reduce(g_d2, axis=0)[:, None] - g_d2.T @ zv)
    return g_z, g_p, g_a, g_b, g_r


# ---------------------------------------------------------------------------
# per-cluster loops of k-means and the evidential-layer init: the
# vectorized ones in evidfuse.evidential must match them byte for byte

def reference_lloyd_kmeans(points, k, rng, reseeds=None):
    """Lloyd iteration with one boolean mask per cluster; empty clusters,
    in index order, take the currently farthest point.  Each reseeded
    cluster index is appended to ``reseeds`` when a list is given."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    centers = points[rng.choice(n, size=k, replace=False)].copy()
    assign = None
    for _ in range(KMEANS_ITERS):
        d2 = (
            np.sum(points ** 2, axis=1, keepdims=True)
            - 2.0 * points @ centers.T
            + np.sum(centers ** 2, axis=1)
        )
        new_assign = np.argmin(d2, axis=1)
        own_d2 = d2[np.arange(n), new_assign]
        for c in range(k):
            if not np.any(new_assign == c):
                far = int(np.argmax(own_d2))
                centers[c] = points[far]
                new_assign[far] = c
                own_d2[far] = 0.0
                if reseeds is not None:
                    reseeds.append(c)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k):
            centers[c] = points[assign == c].mean(axis=0)
    return centers, assign


def reference_init_enn(features, labels, h, seed, m):
    """k-means prototypes, then memberships and precisions cluster by
    cluster (the caller passes valid labels and at least h distinct rows)."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    centers, assign = reference_lloyd_kmeans(features, h, np.random.default_rng(seed))
    membership_raw = np.zeros((h, m))
    msd = np.zeros(h)
    for c in range(h):
        members = assign == c
        counts = np.bincount(labels[members], minlength=m).astype(np.float64)
        membership_raw[c] = np.log(counts + 1.0)
        if np.any(members):
            msd[c] = np.mean(np.sum((features[members] - centers[c]) ** 2, axis=1))
    positive = msd[msd > 0.0]
    fallback = float(positive.mean()) if positive.size else 1.0
    msd = np.where(msd > 0.0, msd, fallback)
    gamma = 1.0 / (2.0 * msd)
    return EnnParams(
        prototypes=centers,
        scale_raw=np.sqrt(gamma),
        support_raw=np.full(h, INIT_SUPPORT_RAW),
        membership_raw=membership_raw,
    )


# ---------------------------------------------------------------------------
# the version-1 text files, as csv.writer and json.dumps write them

def reference_write_data_files(dataset, out_dir):
    """``structured.csv`` by ``csv.writer`` over ``astype(object)`` cells
    (floats as ``repr``, missing as empty) and, with embeddings,
    ``embeddings.jsonl`` by one ``json.dumps`` per line."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "structured.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in dataset.schema] + ["label", "id"])
        missing = [np.isnan(c) if c.dtype == np.float64 else np.equal(c, None)
                   for c in dataset.columns]
        cells = [np.where(gap, "", c.astype(object)) for gap, c in zip(missing, dataset.columns)]
        writer.writerows(zip(*cells, dataset.labels.tolist(), dataset.ids))
    if dataset.embeddings is not None:
        with open(os.path.join(out_dir, "embeddings.jsonl"), "w", encoding="utf-8") as fh:
            for sample_id, vec in zip(dataset.ids, dataset.embeddings):
                fh.write(json.dumps({"id": sample_id, "embedding": vec.tolist()},
                                    sort_keys=True, separators=(",", ":")))
                fh.write("\n")


def as_version_1(manifest_path):
    """Rewrite a version-2 manifest as version 1: write the dataset its
    binary files hold as ``structured.csv`` and, with embeddings,
    ``embeddings.jsonl`` beside it, and name them alone, so that loads
    parse the text; returns its path.  Its bytes are those of a version-1
    writer."""
    dataset = load_dataset(manifest_path)
    reference_write_data_files(dataset, os.path.dirname(manifest_path))
    with open(manifest_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    del doc["binary"]
    doc["format_version"] = 1
    doc["files"] = {"structured": "structured.csv", "embeddings": (
        None if dataset.embeddings is None else "embeddings.jsonl")}
    write_json(manifest_path, doc)
    return manifest_path


def tamper(manifest, key, how, edit):
    """Edit binary file ``key``: ``edit`` of its bytes, left unrecorded
    (``how`` "file") or recorded in the manifest ("recorded"), or ``edit``
    of its array, saved again and recorded ("array")."""
    with open(manifest, encoding="utf-8") as fh:
        doc = json.load(fh)
    path = os.path.join(os.path.dirname(manifest), doc["binary"][key]["file"])
    with open(path, "rb") as fh:
        raw = fh.read()
    if how == "array":
        out = io.BytesIO()
        np.save(out, edit(np.load(io.BytesIO(raw), allow_pickle=False)))
        raw = out.getvalue()
    else:
        raw = edit(raw)
    with open(path, "wb") as fh:
        fh.write(raw)
    if how != "file":
        doc["binary"][key].update(size=len(raw), sha256=hashlib.sha256(raw).hexdigest())
        write_json(manifest, doc)


def checkpoint_arrays(doc, convert):
    """Replace every parameter array of checkpoint document ``doc``
    (encoders, evidential layers, aux heads) by ``convert`` of it, in
    place; returns ``doc``."""
    for source in doc["sources"]:
        for params in (source["encoder"]["params"], source["enn"], source["aux"]["params"]):
            for key, value in params.items():
                params[key] = convert(value)
    return doc


def f8_as_list(value):
    """A version-2 checkpoint array as the nested lists of version 1."""
    raw = base64.b64decode(value["f8"], validate=True)
    return np.frombuffer(raw, "<f8").reshape(value["shape"]).tolist()


def list_as_f8(value):
    """A version-1 checkpoint array (nested lists) as version 2 writes it."""
    array = np.asarray(value, dtype="<f8")
    return {"shape": list(array.shape), "f8": base64.b64encode(array.tobytes()).decode("ascii")}


def checkpoint_doc_as_version_1(doc):
    """A version-2 checkpoint document rewritten as version 1, in place."""
    doc["format_version"] = 1
    return checkpoint_arrays(doc, f8_as_list)


def checkpoint_as_version_1(path):
    """Rewrite a version-2 checkpoint file as version 1, whose arrays are
    nested lists; returns its path.  Its bytes are those of a version-1
    writer."""
    with open(path, encoding="utf-8") as fh:
        doc = checkpoint_doc_as_version_1(json.load(fh))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    return path


def set_item(index, value):
    """An array edit: a copy with ``value`` at ``index``."""
    def edit(array):
        out = array.copy()
        out[index] = value
        return out
    return edit


# ---------------------------------------------------------------------------
# the dataset files read line by line, the whole file at once: what
# evidfuse.data's loaders must return, or raise

def _finite_or_empty(cell):
    try:
        return not cell or math.isfinite(float(cell))
    except ValueError:
        return False


def reference_load(manifest_path, seed=None, part=None):
    """The dataset ``load_dataset`` returns (``part`` None) or that
    ``load_split(manifest_path, seed, part)`` returns, or the DataError
    either raises, a shape fault's message without its reason.  Each file
    raises at its first faulty line, then for its whole-file faults."""
    with open(manifest_path, encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise DataError(f"malformed manifest {manifest_path}: {exc}") from None
    schema = tuple(FeatureSpec(f["name"], f["kind"]) for f in manifest["schema"])
    n, m = manifest["n"], manifest["m"]
    csv_path = os.path.join(os.path.dirname(manifest_path), manifest["files"]["structured"])
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows, starts = [], []   # each record and the file line where it starts
        start = reader.line_num + 1
        for row in reader:
            rows.append(row)
            starts.append(start)
            start = reader.line_num + 1
    assert header == [f.name for f in schema] + ["label", "id"]
    ids, labels = [], []
    for row, start in zip(rows, starts):
        where = f"{csv_path}:{start}:"
        if len(row) != len(schema) + 2:
            raise DataError(f"{where} wrong column count")
        if not re.fullmatch("[0-9]+", row[-2]):
            raise DataError(f"{where} bad label {row[-2]!r}")
        label = int(row[-2])
        if not 0 <= label < m:
            raise DataError(f"{where} label {label} outside 0..{m - 1}")
        if row[-1] in ids:
            raise DataError(f"{where} duplicate id {row[-1]!r}")
        for feat, cell in zip(schema, row):
            if feat.kind == "numerical" and not _finite_or_empty(cell):
                raise DataError(f"{where} feature {feat.name!r}: not a finite number {cell!r}")
        ids.append(row[-1])
        labels.append(label)
    if len(rows) != n:
        raise DataError(f"{csv_path} holds {len(rows)} rows, "
                        f"but manifest {manifest_path} says n = {n}")

    embeddings = None
    if manifest["files"].get("embeddings"):
        path = os.path.join(os.path.dirname(manifest_path), manifest["files"]["embeddings"])
        vectors, width = {}, None
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    sample_id, vector = record["id"], record["embedding"]
                    hash(sample_id)
                except (ValueError, RecursionError, KeyError, TypeError):
                    raise DataError(f"{path}:{line_no}: bad record") from None
                if sample_id in vectors:
                    raise DataError(f"{path}:{line_no}: duplicate id {sample_id!r}")
                vectors[sample_id] = vector
                if sample_id not in ids:
                    continue
                shape_fault = DataError(
                    f"{path}:{line_no}: need one equal-length number list per sample")
                try:
                    values = np.array(vector, dtype=np.float64)
                except (ValueError, TypeError, OverflowError):
                    raise shape_fault from None
                width = len(values) if width is None and values.ndim == 1 else width
                if values.shape != (width,) or not all(
                        v is None or type(v) in (int, float) for v in vector):
                    raise shape_fault
                if not np.isfinite(values).all():
                    raise DataError(f"{path}: non-finite or null embedding value for id "
                                    f"{sample_id!r}")
        for sample_id in ids:
            if sample_id not in vectors:
                raise DataError(f"{path}: no embedding for id {sample_id!r}")
        if not ids:
            raise DataError(f"{path}: need one equal-length number list per sample")
        embeddings = np.array([vectors[i] for i in ids], dtype=np.float64)

    out = range(len(rows)) if part is None else split_indices(n, seed)[SPLIT_NAMES.index(part)]
    columns = []
    for j, feat in enumerate(schema):
        cells = [rows[i][j] for i in out]
        columns.append(np.array([float(c) if c else math.nan for c in cells])
                       if feat.kind == "numerical" else
                       np.array([c or None for c in cells], dtype=object))
    return Dataset(schema=schema, ids=[ids[i] for i in out], columns=columns,
                   labels=np.array([labels[i] for i in out], dtype=np.int64),
                   embeddings=None if embeddings is None else embeddings[list(out)], m=m,
                   generator=manifest.get("generator"))


# ---------------------------------------------------------------------------
# the metrics report one metric at a time: each checks its inputs and
# AUROC ranks by np.unique; ``metrics.evaluate`` must give its bytes

def _reference_checked(scores, labels):
    scores, labels = np.asarray(scores, dtype=np.float64), np.asarray(labels)
    if scores.shape != labels.shape:
        raise DataError("scores and labels differ in length")
    if not np.all(np.isfinite(scores)):
        raise DataError("scores must be finite")
    if not np.all(np.isin(labels, (0, 1))):
        raise DataError("labels must be binary 0/1")
    return scores, labels


def reference_auroc(scores, labels):
    scores, labels = _reference_checked(scores, labels)
    n_pos, n_neg = int(np.sum(labels == 1)), int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUROC requires both classes present")
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    return (float(ranks[labels == 1].sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def reference_auprc(scores, labels):
    scores, labels = _reference_checked(scores, labels)
    n_pos = int(np.sum(labels == 1))
    if n_pos == 0:
        raise DataError("AUPRC requires at least one positive")
    order = np.argsort(-scores, kind="mergesort")
    sorted_scores, sorted_labels = scores[order], labels[order]
    tp, fp = np.cumsum(sorted_labels == 1), np.cumsum(sorted_labels == 0)
    boundary = np.append(sorted_scores[1:] != sorted_scores[:-1], True)
    tp_b, fp_b = tp[boundary], fp[boundary]
    recall_steps = np.diff(np.concatenate(([0.0], tp_b / n_pos)))
    return float(np.sum(tp_b / (tp_b + fp_b) * recall_steps))


def reference_evaluate(probs, labels) -> MetricsReport:
    probs, labels = _reference_checked(probs, labels)
    predicted = probs > 0.5
    pos = labels == 1
    counts = dict(tp=int(np.sum(pos & predicted)), tn=int(np.sum(~pos & ~predicted)),
                  fp=int(np.sum(~pos & predicted)), fn=int(np.sum(pos & ~predicted)))
    clamped = np.clip(probs, NLL_CLAMP, 1.0 - NLL_CLAMP)
    return MetricsReport(
        **counts, **rates(ConfusionCounts(**counts)),
        auroc=reference_auroc(probs, labels), auprc=reference_auprc(probs, labels),
        brier=float(np.mean((probs - labels) ** 2)),
        nll=float(-np.mean(labels * np.log(clamped) + (1.0 - labels) * np.log(1.0 - clamped))))

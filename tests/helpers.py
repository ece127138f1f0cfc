"""Shared test utilities: gradient checking, small model fixtures, the
exact per-sample reference for the evidential layer and the fused
prediction, and taped reference implementations of the batched evidence,
the fusion and the training objective."""

import numpy as np
import pytest

from evidfuse.autodiff import Tape
from evidfuse.encoders import encode
from evidfuse.errors import DataError
from evidfuse.evidential import EnnParams
from evidfuse.model import PROB_FLOOR, Frame, Predictions, SourceSpec, batch_internals, init_model
import tape_ops as ad
from reference import (SimpleMass, beta, combine_many, degree_of_conflict, gamma, membership,
                       pignistic)


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
    model = init_model(Frame.of_size(2), specs, [x_struct, x_text], labels,
                       seed=seed, prototypes=prototypes, encoder_overrides=overrides)
    return model, [x_struct, x_text], labels


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
    chained aux loss scaled by its (nonzero) aux weight."""
    fused, aux_logits = batch_internals(model, inputs, params=params, masks=masks)
    total = chained_loss_main(fused.probs, labels, model.class_weights)
    for src, logits in zip(model.sources, aux_logits):
        if src.spec.aux_weight != 0.0:
            total = total + src.spec.aux_weight * chained_loss_aux(logits, labels,
                                                                   model.class_weights)
    return total


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
        frame = Frame.of_size(len(membership))
    if not 0.0 <= activation <= 1.0:
        raise DataError(f"activation {activation!r} outside [0, 1]")
    return SimpleMass(frame, membership * activation, 1.0 - activation)


def enn_forward(x: np.ndarray, params: EnnParams, frame: Frame | None = None) -> SimpleMass:
    """Fuse all prototype evidence for one input by Dempster's rule."""
    if frame is None:
        frame = Frame.of_size(params.m)
    s = prototype_activations(x, params)
    u = membership(params)
    return combine_many([prototype_mass(s[h], u[h], frame) for h in range(len(s))])


def exact_prediction(model, sample_inputs):
    """One sample's prediction through the exact mass algebra, as a
    one-row ``Predictions`` (fields without the sample axis)."""
    per_source = [enn_forward(encode(src.encoder, x[None])[0], src.enn, model.frame)
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

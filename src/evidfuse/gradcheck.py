"""Finite-difference verification harness for the full model gradient.

``ParamVector`` (defined in ``model``, which trains on the same flat
layout) gives every trainable scalar a stable flat index and a
human-readable label, so a disagreement can be pinned to one parameter.
``check_gradients`` perturbs each checked scalar by +-step with
identical dropout masks on every evaluation and compares the resulting
central difference against the tape gradient.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .model import (
    FusionModel,
    ParamVector,
    loss_and_grad,
    loss_overall,
    make_dropout_masks,
    param_dict,
)
from .rng import substream

# differences smaller than this are indistinguishable from float noise
ABS_FLOOR = 1e-7


@dataclass(frozen=True)
class GradCheckResult:
    max_rel_error: float
    worst_param: str | None
    n_checked: int


def check_gradients(model: FusionModel, inputs, labels, step: float = 1e-5,
                    max_entries: int | None = None, seed: int = 0,
                    dropout_seed: int | None = None, grad_fn=None) -> GradCheckResult:
    """Compare the tape gradient against central finite differences.

    Checks every trainable scalar, or a seeded random subset of
    ``max_entries`` of them.  A per-entry error is the relative
    difference, except that absolute differences at or below 1e-7 count
    as zero (float noise on near-zero gradients).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    pv = ParamVector.from_model(model)
    if pv.size == 0:
        return GradCheckResult(0.0, None, 0)

    n = len(np.asarray(labels))
    if dropout_seed is not None:
        masks = make_dropout_masks(model, n, substream(dropout_seed, "dropout"))
    else:
        masks = None

    base_params = param_dict(model)
    if grad_fn is None:
        grad_fn = loss_and_grad
    _, grads = grad_fn(model, inputs, labels, params=base_params, masks=masks)
    flat_grad = pv.flatten(grads)
    flat_base = pv.flatten(base_params)

    if max_entries is None or max_entries >= pv.size:
        indices = np.arange(pv.size)
    else:
        indices = np.sort(substream(seed, "gradcheck").choice(pv.size, size=max_entries,
                                                              replace=False))

    def loss_at(vec):
        return float(ad.value_of(
            loss_overall(model, inputs, labels, params=pv.unflatten(vec), masks=masks)
        ))

    worst_err, worst_name = 0.0, None
    for idx in indices:
        bumped = flat_base.copy()
        bumped[idx] += step
        up = loss_at(bumped)
        bumped[idx] -= 2.0 * step
        down = loss_at(bumped)
        numeric = (up - down) / (2.0 * step)
        analytic = flat_grad[idx]
        abs_diff = abs(analytic - numeric)
        if abs_diff <= ABS_FLOOR:
            err = 0.0
        else:
            err = abs_diff / max(abs(analytic), abs(numeric))
        if err > worst_err:
            worst_err, worst_name = err, pv.entry_label(int(idx))
    return GradCheckResult(worst_err, worst_name, len(indices))

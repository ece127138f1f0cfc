"""Accuracy and reliability metrics for binary classification runs.

Covers confusion-derived rates, ranking metrics (AUROC via the
rank-based Mann-Whitney estimator, AUPRC via average precision), and
calibration metrics (Brier score and negative log-likelihood).
All functions are pure and operate on plain numpy arrays.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DataError

NLL_CLAMP = 1e-12


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int


def confusion(labels, predicted) -> ConfusionCounts:
    """Exact confusion counts for 0/1 labels and 0/1 predictions."""
    labels = np.asarray(labels)
    predicted = np.asarray(predicted)
    if labels.shape != predicted.shape:
        raise DataError("labels and predictions differ in length")
    if not np.all(np.isin(labels, (0, 1))) or not np.all(np.isin(predicted, (0, 1))):
        raise DataError("confusion metrics require binary 0/1 values")
    pos, pred_pos = labels == 1, predicted == 1
    return ConfusionCounts(
        tp=int(np.sum(pos & pred_pos)),
        tn=int(np.sum(~pos & ~pred_pos)),
        fp=int(np.sum(~pos & pred_pos)),
        fn=int(np.sum(pos & ~pred_pos)),
    )


def _ratio(num, den, name, flags):
    if den == 0:
        flags.append(name)
        return 0.0
    return num / den


def rates(c: ConfusionCounts) -> dict:
    """Confusion-derived rates; zero-denominator rates are 0 and flagged."""
    flags: list = []
    precision = _ratio(c.tp, c.tp + c.fp, "precision", flags)
    recall = _ratio(c.tp, c.tp + c.fn, "recall", flags)
    specificity = _ratio(c.tn, c.tn + c.fp, "specificity", flags)
    npv = _ratio(c.tn, c.tn + c.fn, "npv", flags)
    bacc = 0.5 * (recall + specificity)
    f1 = _ratio(2.0 * precision * recall, precision + recall, "f1", flags)
    return {
        "precision": precision,
        "recall": recall,
        "specificity": specificity,
        "npv": npv,
        "bacc": bacc,
        "f1": f1,
        "undefined_rates": flags,
    }


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing the midrank."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    # a tie group of c values ending at rank e shares (e - c + 1 + e) / 2
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def _scores_and_labels(scores, labels):
    """Float scores and 0/1 labels, checked to be finite, binary and of
    one length."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise DataError("scores and labels differ in length")
    if not np.all(np.isfinite(scores)):
        raise DataError("scores must be finite")
    if not np.all(np.isin(labels, (0, 1))):
        raise DataError("labels must be binary 0/1")
    return scores, labels


def auroc(scores, labels) -> float:
    """Area under the ROC curve by the Mann-Whitney rank statistic.

    Equals the probability that a random positive outranks a random
    negative, counting ties as half; identical to the trapezoidal ROC
    area.
    """
    scores, labels = _scores_and_labels(scores, labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUROC requires both classes present")
    ranks = _midranks(scores)
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auprc(scores, labels) -> float:
    """Area under the precision-recall curve as average precision.

    Precision is held right-constant between recall steps (no linear
    interpolation). Tied scores are processed as one threshold group.
    """
    scores, labels = _scores_and_labels(scores, labels)
    n_pos = int(np.sum(labels == 1))
    if n_pos == 0:
        raise DataError("AUPRC requires at least one positive")
    order = np.argsort(-scores, kind="mergesort")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    tp = np.cumsum(sorted_labels == 1)
    fp = np.cumsum(sorted_labels == 0)
    # last index of each distinct-score group = a realizable threshold
    boundary = np.append(sorted_scores[1:] != sorted_scores[:-1], True)
    tp_b, fp_b = tp[boundary], fp[boundary]
    precision = tp_b / (tp_b + fp_b)
    recall = tp_b / n_pos
    recall_steps = np.diff(np.concatenate(([0.0], recall)))
    return float(np.sum(precision * recall_steps))


def brier(probs, labels) -> float:
    """Mean squared error between positive-class probability and outcome."""
    probs, labels = _scores_and_labels(probs, labels)
    return float(np.mean((probs - labels) ** 2))


def nll(probs, labels) -> float:
    """Binary negative log-likelihood, probabilities clamped at 1e-12."""
    probs, labels = _scores_and_labels(probs, labels)
    probs = np.clip(probs, NLL_CLAMP, 1.0 - NLL_CLAMP)
    return float(-np.mean(labels * np.log(probs) + (1.0 - labels) * np.log(1.0 - probs)))


@dataclass(frozen=True)
class MetricsReport:
    """All evaluation metrics for one run on one split."""

    tp: int
    tn: int
    fp: int
    fn: int
    precision: float
    recall: float
    specificity: float
    npv: float
    bacc: float
    f1: float
    auroc: float
    auprc: float
    brier: float
    nll: float
    undefined_rates: list = field(default_factory=list)


SUMMARY_METRICS = (
    "precision", "recall", "specificity", "npv", "bacc", "f1",
    "auroc", "auprc", "brier", "nll",
)


def evaluate(probs, labels) -> MetricsReport:
    """Full report for positive-class probabilities against 0/1 labels.

    The decision rule is p(positive) > 0.5, ties to negative: the
    model's own argmax-with-lowest-index decision for two classes.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    predicted = (probs > 0.5).astype(np.int64)
    c = confusion(labels, predicted)
    return MetricsReport(
        **asdict(c),
        **rates(c),
        auroc=auroc(probs, labels),
        auprc=auprc(probs, labels),
        brier=brier(probs, labels),
        nll=nll(probs, labels),
    )


def summarize(reports) -> dict:
    """Mean and standard error of every metric across repeated-seed runs."""
    reports = list(reports)
    if not reports:
        raise DataError("cannot summarize zero reports")
    out = {"n_runs": len(reports)}
    for name in SUMMARY_METRICS:
        values = np.array([getattr(r, name) for r in reports], dtype=np.float64)
        mean = float(values.mean())
        if len(values) > 1:
            stderr = float(values.std(ddof=1) / math.sqrt(len(values)))
        else:
            stderr = 0.0
        out[name] = {"mean": mean, "stderr": stderr}
    return out

"""Accuracy and reliability metrics for binary classification runs.

``evaluate`` is the one entry point: it checks its inputs once and
reports confusion counts and the rates derived from them, the ranking
metrics and the calibration metrics.  AUROC is the Mann-Whitney rank
statistic, the probability that a random positive outranks a random
negative with ties counting half; AUPRC is average precision, with
precision held right-constant between recall steps and each group of
tied scores one threshold.  Both read one stable sort of the scores
(``_thresholds``).  The Brier score is the mean squared error of the
positive-class probability, and the negative log-likelihood clamps
probabilities at 1e-12.  All functions are pure and operate on plain
numpy arrays.
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


def _confusion(labels, predicted) -> ConfusionCounts:
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


def _thresholds(scores, labels):
    """The ranking both areas read, from one stable sort of the scores,
    highest first: for each group of tied scores (one threshold), the
    number of rows ranked down to its end and the positives among them."""
    order = np.argsort(-scores, kind="mergesort")
    sorted_scores = scores[order]
    # last index of each distinct-score group = a realizable threshold
    boundary = np.ones(len(scores), dtype=bool)
    boundary[:-1] = sorted_scores[1:] != sorted_scores[:-1]
    return np.flatnonzero(boundary) + 1, np.cumsum(labels[order] == 1)[boundary]


def _auroc(labels, ends, tp) -> float:
    """Area under the ROC curve by the Mann-Whitney rank statistic: the
    probability that a random positive outranks a random negative,
    counting ties as half, which equals the trapezoidal ROC area."""
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUROC requires both classes present")
    # the group from rank start + 1 to end, highest first, shares the
    # 1-based ascending midrank n - (start + end - 1) / 2; each midrank
    # and product is a multiple of 0.5, so below 2**53 the sum is exact in
    # any order
    starts = np.concatenate(([0], ends[:-1]))
    midranks = len(labels) - (starts + ends - 1) / 2.0
    pos_rank_sum = float(np.sum(midranks * np.diff(tp, prepend=0)))
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _auprc(labels, ends, tp) -> float:
    """Area under the precision-recall curve as average precision: the
    precision at each threshold (one per group of tied scores), held
    right-constant (no linear interpolation), times the recall it adds.
    ``n_pos`` is not 0, since ``_auroc`` runs first."""
    n_pos = int(np.sum(labels == 1))
    precision = tp / ends
    recall = tp / n_pos
    recall_steps = np.diff(np.concatenate(([0.0], recall)))
    return float(np.sum(precision * recall_steps))


def _nll(probs, labels) -> float:
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
    model's own argmax-with-lowest-index decision for two classes.  The
    inputs are checked once and the scores sorted once, for every metric.
    """
    probs, labels = _scores_and_labels(probs, labels)
    c = _confusion(labels, probs > 0.5)
    thresholds = _thresholds(probs, labels)
    return MetricsReport(
        **asdict(c),
        **rates(c),
        auroc=_auroc(labels, *thresholds),
        auprc=_auprc(labels, *thresholds),
        brier=float(np.mean((probs - labels) ** 2)),
        nll=_nll(probs, labels),
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

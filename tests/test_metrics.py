"""Metric implementations checked against brute-force definitions, each
metric read from the one report ``evaluate`` gives."""

import math
import re
from dataclasses import asdict

import numpy as np
import pytest

from evidfuse.errors import DataError
from evidfuse.metrics import ConfusionCounts, evaluate, rates, summarize
from helpers import reference_evaluate


# each metric as the one report gives it; ``evaluate`` checks its inputs
# for all of them at once

def auroc(scores, labels):
    return evaluate(scores, labels).auroc


def auprc(scores, labels):
    return evaluate(scores, labels).auprc


def brier(probs, labels):
    return evaluate(probs, labels).brier


def nll(probs, labels):
    return evaluate(probs, labels).nll


def auroc_bruteforce(scores, labels):
    """O(n^2) pairwise definition: P(pos outranks neg), ties count half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def auprc_bruteforce(scores, labels):
    """Recompute precision/recall from scratch at every distinct threshold."""
    scores = np.asarray(scores)
    labels = np.asarray(labels)
    n_pos = labels.sum()
    ap, prev_recall = 0.0, 0.0
    for t in sorted(set(scores.tolist()), reverse=True):
        pred = scores >= t
        tp = int(np.sum((labels == 1) & pred))
        fp = int(np.sum((labels == 0) & pred))
        precision = tp / (tp + fp)
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


class TestConfusionRates:
    def test_hand_example(self):
        r = rates(ConfusionCounts(tp=3, tn=5, fp=1, fn=1))
        assert r["precision"] == 0.75
        assert r["recall"] == 0.75
        assert abs(r["specificity"] - 5 / 6) < 1e-15
        assert abs(r["bacc"] - (0.75 + 5 / 6) / 2) < 1e-15
        assert abs(r["f1"] - 0.75) < 1e-15
        assert r["undefined_rates"] == []

    def test_perfect_classifier(self):
        labels = np.array([0, 1, 1, 0, 1])
        r = asdict(evaluate(labels.astype(float), labels))
        for name in ("precision", "recall", "specificity", "npv", "bacc", "f1"):
            assert r[name] == 1.0

    def test_all_negative_predictor(self):
        labels = np.array([0, 1, 1, 0])
        r = asdict(evaluate(np.zeros(4), labels))
        assert r["recall"] == 0.0
        assert r["specificity"] == 1.0
        assert r["bacc"] == 0.5
        assert "precision" in r["undefined_rates"]

    def test_identities_under_fuzzing(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            tp, tn, fp, fn = (int(x) for x in rng.integers(0, 40, size=4))
            if tp + tn + fp + fn == 0:
                continue
            r = rates(ConfusionCounts(tp, tn, fp, fn))
            assert abs(r["bacc"] - 0.5 * (r["recall"] + r["specificity"])) <= 1e-12
            if r["precision"] + r["recall"] > 0:
                expected_f1 = 2 * r["precision"] * r["recall"] / (r["precision"] + r["recall"])
                assert abs(r["f1"] - expected_f1) <= 1e-12
            for name in ("precision", "recall", "specificity", "npv", "bacc", "f1"):
                assert 0.0 <= r[name] <= 1.0

    def test_nonbinary_rejected(self):
        with pytest.raises(DataError):
            evaluate(np.array([0.0, 1.0]), np.array([0, 2]))


class TestAuroc:
    def test_perfect_ranking(self):
        assert auroc([0.0, 1.0, 1.0, 0.0], [0, 1, 1, 0]) == 1.0

    def test_constant_scores(self):
        assert auroc([0.4] * 6, [0, 1, 0, 1, 1, 0]) == 0.5

    def test_hand_example(self):
        assert abs(auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) - 0.75) <= 1e-15

    def test_matches_bruteforce_with_ties(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(10, 120))
            # coarse grid forces plenty of ties
            scores = rng.integers(0, 8, size=n) / 7.0
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                continue
            assert abs(auroc(scores, labels) - auroc_bruteforce(scores, labels)) <= 1e-12

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(11)
        scores = rng.normal(size=200)
        labels = rng.integers(0, 2, size=200)
        raw = auroc(scores, labels)
        assert abs(auroc(np.exp(scores), labels) - raw) <= 1e-12
        assert abs(auroc(3.0 * scores + 5.0, labels) - raw) <= 1e-12

    def test_flip_symmetry_without_ties(self):
        rng = np.random.default_rng(13)
        scores = rng.permutation(np.linspace(0, 1, 100))
        labels = rng.integers(0, 2, size=100)
        assert abs(auroc(scores, labels) + auroc(-scores, labels) - 1.0) <= 1e-12

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            auroc([0.1, 0.9], [1, 1])


class TestAuprc:
    def test_perfect_ranking(self):
        assert auprc([0.1, 0.9, 0.8, 0.2], [0, 1, 1, 0]) == 1.0

    def test_hand_example(self):
        assert abs(auprc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) - 5 / 6) <= 1e-12

    def test_matches_bruteforce_with_ties(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(10, 120))
            scores = rng.integers(0, 8, size=n) / 7.0
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                continue
            assert abs(auprc(scores, labels) - auprc_bruteforce(scores, labels)) <= 1e-12

    def test_random_scores_approach_prevalence(self):
        rng = np.random.default_rng(19)
        n, rate = 10000, 0.2
        labels = (rng.random(n) < rate).astype(int)
        scores = rng.random(n)
        assert abs(auprc(scores, labels) - labels.mean()) <= 0.05

    def test_no_positives_rejected(self):
        with pytest.raises(DataError):
            auprc([0.1, 0.9], [0, 0])


class TestCalibration:
    def test_perfect_probabilities(self):
        labels = np.array([1, 0, 1])
        assert brier(labels.astype(float), labels) == 0.0
        assert nll(labels.astype(float), labels) <= 1e-9

    def test_coin_flip_probabilities(self):
        labels = np.array([1, 0, 1, 0])
        p = np.full(4, 0.5)
        assert abs(brier(p, labels) - 0.25) <= 1e-15
        assert abs(nll(p, labels) - math.log(2)) <= 1e-12

    def test_hand_example(self):
        p = np.array([0.8, 0.3])
        o = np.array([1, 0])
        assert abs(brier(p, o) - 0.065) <= 1e-15
        assert abs(nll(p, o) - (-math.log(0.8) - math.log(0.7)) / 2) <= 1e-12

    def test_bounds_under_fuzzing(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(2, 50))
            p = rng.random(n)
            o = rng.integers(0, 2, size=n)
            o[:2] = (0, 1)   # both classes
            assert 0.0 <= brier(p, o) <= 1.0
            assert nll(p, o) >= 0.0


class TestInputValidation:
    @pytest.mark.parametrize("metric", [auroc, auprc, brier, nll])
    @pytest.mark.parametrize("scores,labels", [
        ([np.nan, 0.2, 0.7, np.nan], [1, 0, 1, 0]),
        ([0.1, np.inf, 0.5, 0.3], [0, 1, 1, 0]),
        ([0.1, 0.9, 0.5], [0, 1, 2]),
        ([0.1, 0.9, 0.5], [0, 1]),
    ], ids=["nan-score", "inf-score", "label-2", "length-mismatch"])
    def test_rejected(self, metric, scores, labels):
        with pytest.raises(DataError):
            metric(scores, labels)


class TestEvaluateAndSummarize:
    def test_report_consistency(self):
        rng = np.random.default_rng(29)
        labels = rng.integers(0, 2, size=300)
        probs = np.clip(labels * 0.6 + rng.random(300) * 0.4, 0, 1)
        report = evaluate(probs, labels)
        assert report.tp + report.tn + report.fp + report.fn == 300
        assert abs(report.bacc - 0.5 * (report.recall + report.specificity)) <= 1e-12

    def test_threshold_strictly_greater(self):
        # p == 0.5 is a tie, decided negative
        report = evaluate(np.array([0.5, 0.6, 0.1]), np.array([1, 1, 0]))
        assert report.tp == 1 and report.fn == 1 and report.tn == 1

    def test_summary_mean_and_stderr(self):
        labels = np.array([0, 1, 0, 1])
        reports = [
            evaluate(np.array([0.1, 0.9, 0.2, 0.8]), labels),
            evaluate(np.array([0.3, 0.7, 0.4, 0.6]), labels),
        ]
        summary = summarize(reports)
        assert summary["n_runs"] == 2
        b = [r.brier for r in reports]
        assert abs(summary["brier"]["mean"] - np.mean(b)) <= 1e-15
        expected_se = np.std(b, ddof=1) / math.sqrt(2)
        assert abs(summary["brier"]["stderr"] - expected_se) <= 1e-15


def _score_cases(rng, n):
    """Scores of n rows: random, tied on a coarse grid, constant, two-valued
    and signed zeros among ties."""
    return {
        "random": rng.random(n),
        "tied": rng.integers(0, 8, size=n) / 7.0,
        "constant": np.full(n, 0.5),
        "two-valued": np.where(rng.random(n) < 0.3, 0.25, 0.75),
        "signed-zeros": rng.choice([-0.0, 0.0, 0.5, 1.0], size=n),
    }


class TestEvaluateMatchesTheOracle:
    """``evaluate`` checks once and sorts once; its report has the bytes of
    ``helpers.reference_evaluate``, which checks and sorts per metric and
    ranks AUROC by ``np.unique``."""

    @pytest.mark.parametrize("n", [2, 3, 17, 200, 5000])
    def test_report_bytes(self, n):
        rng = np.random.default_rng(n)
        for name, scores in _score_cases(rng, n).items():
            for labels in (rng.integers(0, 2, size=n), np.arange(n) % 2,
                           (rng.random(n) < 0.05).astype(np.int64)):
                labels[:2] = (0, 1)   # both classes
                where = f"{name}, n = {n}"
                report = evaluate(scores, labels)
                assert repr(asdict(report)) == repr(asdict(reference_evaluate(scores, labels))), where

    @pytest.mark.parametrize("scores,labels", [
        ([0.2, np.nan, 0.7], [1, 0, 1]),
        ([0.1, 0.9, 0.5], [0, 1, 2]),
        ([0.1, 0.9, 0.5], [0, 1]),
        ([0.1, 0.9], [1, 1]),
        ([], []),
    ], ids=["nan-score", "label-2", "length-mismatch", "one-class", "empty"])
    def test_rejects_what_the_oracle_rejects(self, scores, labels):
        with pytest.raises(DataError) as expected:
            reference_evaluate(scores, labels)
        with pytest.raises(DataError, match=f"^{re.escape(str(expected.value))}$"):
            evaluate(scores, labels)

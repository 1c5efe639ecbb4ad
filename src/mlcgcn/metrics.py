"""Evaluation metrics, fold reports, and the stratified splitter.

All five metrics are fractions in [0, 1]. Multi-class sensitivity,
specificity, F1, and AUC are macro one-vs-rest averages over the classes
present in the ground truth; AUC handles ties as half-concordant.
"""

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError

METRIC_NAMES = ("acc", "auc", "spe", "sen", "f1")
METRIC_LABELS = ("Acc", "AUC", "Spe", "Sen", "F1")


@dataclass
class MetricReport:
    acc: float
    auc: float
    spe: float
    sen: float
    f1: float

    def values(self):
        return tuple(getattr(self, name) for name in METRIC_NAMES)

    def percent_cells(self):
        return [f"{100.0 * v:.2f}" for v in self.values()]


@dataclass
class FoldReport:
    """Per-fold metric reports plus their mean and standard deviation."""

    folds: list

    def __post_init__(self):
        if not self.folds:
            raise ContractError("FoldReport needs at least one fold")

    def mean(self) -> MetricReport:
        table = np.array([r.values() for r in self.folds])
        return MetricReport(*table.mean(axis=0))

    def std(self) -> MetricReport:
        table = np.array([r.values() for r in self.folds])
        return MetricReport(*table.std(axis=0))

    def mean_std_cells(self):
        """One `mean±std` cell per metric, as percentages with 2 decimals."""
        mean, std = self.mean(), self.std()
        return [f"{m}±{s}" for m, s in zip(mean.percent_cells(), std.percent_cells())]

    def to_text(self) -> str:
        """Byte-stable table: percentages with 2 decimals, mean +/- std last."""
        lines = [",".join(["fold", *METRIC_LABELS])]
        for i, rep in enumerate(self.folds, start=1):
            lines.append(",".join([str(i)] + rep.percent_cells()))
        lines.append(",".join(["mean±std"] + self.mean_std_cells()))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {
            "folds": [dict(zip(METRIC_NAMES, r.values())) for r in self.folds],
            "mean": dict(zip(METRIC_NAMES, self.mean().values())),
            "std": dict(zip(METRIC_NAMES, self.std().values())),
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def confusion_counts(pred, truth, classes):
    """[c x c] count matrix indexed [truth, prediction]."""
    pred = np.asarray(pred, dtype=int)
    truth = np.asarray(truth, dtype=int)
    if pred.shape != truth.shape:
        raise ContractError("pred and truth must have the same length")
    if pred.size and (pred.min() < 0 or pred.max() >= classes):
        raise ContractError(f"prediction index outside [0, {classes})")
    if truth.size and (truth.min() < 0 or truth.max() >= classes):
        raise ContractError(f"truth index outside [0, {classes})")
    counts = np.zeros((classes, classes), dtype=int)
    np.add.at(counts, (truth, pred), 1)
    return counts


def _average_ranks(scores):
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores))
    ranks[order] = np.arange(1, len(scores) + 1)
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    sums = np.bincount(inverse, weights=ranks)
    return (sums / counts)[inverse]


def _auc_binary(scores, positive):
    """One-vs-rest AUC via the rank-sum statistic; ties count one half."""
    n_pos = int(positive.sum())
    n_neg = len(scores) - n_pos
    ranks = _average_ranks(scores)
    return (ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def compute_metrics(pred_probs, truth) -> MetricReport:
    """Five-metric report from predicted probabilities [N x c]."""
    probs = np.asarray(pred_probs, dtype=np.float64)
    truth = np.asarray(truth, dtype=int)
    n, c = probs.shape
    if n < 1:
        raise ContractError("compute_metrics on an empty batch")
    pred = probs.argmax(axis=1)
    cm = confusion_counts(pred, truth, c)
    support = cm.sum(axis=1)
    absent = [k for k in range(c) if support[k] == 0]
    if absent:
        warnings.warn(f"classes absent from truth excluded from macro averages: {absent}", stacklevel=2)

    acc = float(np.trace(cm)) / n
    sens, spes, f1s, aucs = [], [], [], []
    for k in range(c):
        if support[k] == 0:
            continue
        tp = cm[k, k]
        fn = support[k] - tp
        fp = cm[:, k].sum() - tp
        tn = n - tp - fn - fp
        sens.append(tp / (tp + fn))
        if tn + fp > 0:
            spes.append(tn / (tn + fp))
        precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
        recall = tp / (tp + fn)
        f1s.append(2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0)
        if n - support[k] > 0:
            aucs.append(_auc_binary(probs[:, k], truth == k))

    def _macro(vals, name):
        if not vals:
            warnings.warn(f"{name} undefined for every class; reporting 0", stacklevel=3)
            return 0.0
        return float(np.mean(vals))

    return MetricReport(
        acc=acc,
        auc=_macro(aucs, "auc"),
        spe=_macro(spes, "spe"),
        sen=_macro(sens, "sen"),
        f1=_macro(f1s, "f1"),
    )


def stratified_kfold(labels, k, seed):
    """k disjoint (train, test) index splits preserving class proportions.

    Test sets partition the index range; per-class counts across folds differ
    by at most one; output is deterministic for a given seed.
    """
    labels = np.asarray(labels, dtype=int)
    if k < 2:
        raise ConfigError(f"folds must be >= 2, got {k}")
    classes, counts = np.unique(labels, return_counts=True)
    for cls, cnt in zip(classes, counts):
        if cnt < k:
            raise ConfigError(f"class {cls} has {cnt} samples, fewer than {k} folds")
    rng = np.random.default_rng(seed)
    test_folds = [[] for _ in range(k)]
    for cls in classes:
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        for j, chunk in enumerate(np.array_split(idx, k)):
            test_folds[j].extend(chunk.tolist())
    all_idx = np.arange(len(labels))
    splits = []
    for j in range(k):
        test = np.array(sorted(test_folds[j]), dtype=int)
        train = np.setdiff1d(all_idx, test)
        splits.append((train, test))
    return splits

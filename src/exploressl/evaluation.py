"""Cluster-to-class labeling, confusion alignment, seed-class macro F1 and
paired significance tests across partitions."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np
from scipy import stats
from scipy.optimize import linear_sum_assignment


@dataclass
class ConfusionMatrix:
    counts: np.ndarray  # (clusters x gold classes), non-negative ints
    row_ids: list
    col_ids: list

    def total(self) -> int:
        return int(self.counts.sum())


@dataclass
class EvaluationReport:
    macro_f1_seed: float
    per_class_prf: list[dict]
    num_clusters: int
    aligned_confusion: ConfusionMatrix


class SignificanceOutcome(Enum):
    A_SIG = "A-sig"
    B_SIG = "B-sig"
    NONE = "none"


@dataclass
class SignificanceResult:
    outcome: SignificanceOutcome
    p_value: float
    mean_diff: float

    def marker(self) -> str:
        """Filled triangle at the 0.05 level, open at 0.1, else empty."""
        if self.outcome is SignificanceOutcome.NONE:
            return ""
        return "▲" if self.p_value < 0.05 else ("△" if self.p_value < 0.1 else "")


def majority_label_clusters(
    assignments: Sequence[int], gold_labels: Sequence[int]
) -> dict[int, int]:
    """Map every non-empty cluster to its most frequent gold class
    (ties to the lowest gold id). Many-to-one mappings are allowed."""
    cm = build_confusion(assignments, gold_labels)
    if not cm.row_ids:
        return {}
    return dict(zip(cm.row_ids, (cm.col_ids[j] for j in cm.counts.argmax(axis=1))))


def per_class_prf(
    assignments: Sequence[int],
    gold_labels: Sequence[int],
    class_ids: Iterable[int],
) -> list[dict]:
    """Precision/recall/F1 per gold class after majority labeling of the
    clusters. A class with neither predictions nor gold members scores 0."""
    cm = build_confusion(assignments, gold_labels)
    label = cm.counts.argmax(axis=1) if cm.row_ids else np.zeros(0, dtype=np.int64)
    k = len(cm.col_ids)
    # per gold class: instances labeled with it, those of them in it, its size
    predicted = np.bincount(label, cm.counts.sum(axis=1), k)
    correct = np.bincount(label, cm.counts[np.arange(len(label)), label], k)
    counts = {
        y: (int(correct[j]), int(predicted[j]), int(cm.counts[:, j].sum()))
        for j, y in enumerate(cm.col_ids)
    }
    rows = []
    for c in sorted(class_ids):
        tp, n_pred, n_gold = counts.get(c, (0, 0, 0))
        precision = tp / n_pred if n_pred else 0.0
        recall = tp / n_gold if n_gold else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        rows.append(
            {"class_id": c, "precision": precision, "recall": recall, "f1": f1,
             "support": n_gold}
        )
    return rows


def seed_macro_f1(
    assignments: Sequence[int],
    gold_labels: Sequence[int],
    seeded_class_ids: Iterable[int],
) -> float:
    """Unweighted mean F1 restricted to the seeded classes."""
    rows = per_class_prf(assignments, gold_labels, seeded_class_ids)
    if not rows:
        raise ValueError("no seeded classes to evaluate")
    return float(np.mean([r["f1"] for r in rows]))


def build_confusion(
    assignments: Sequence[int], gold_labels: Sequence[int]
) -> ConfusionMatrix:
    """Counts of (cluster, gold class) pairs; rows and columns in sorted id order."""
    if len(assignments) != len(gold_labels):
        raise ValueError("assignments and gold_labels must align")
    row_ids, r = np.unique(np.asarray(assignments), return_inverse=True)
    col_ids, c = np.unique(np.asarray(gold_labels), return_inverse=True)
    shape = (len(row_ids), len(col_ids))
    counts = np.bincount(r * shape[1] + c, minlength=shape[0] * shape[1]).reshape(shape)
    return ConfusionMatrix(counts.astype(np.int64), row_ids.tolist(), col_ids.tolist())


def _matching(cm: ConfusionMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The counts zero-padded to a square, and a maximum-weight matching on it."""
    r, c = cm.counts.shape
    size = max(r, c)
    padded = np.zeros((size, size), dtype=np.int64)
    padded[:r, :c] = cm.counts
    row_ind, col_ind = linear_sum_assignment(padded, maximize=True)
    return padded, row_ind, col_ind


def align_confusion(cm: ConfusionMatrix) -> ConfusionMatrix:
    """Permute the cluster rows to maximize the diagonal sum, via a
    maximum-weight bipartite matching on the zero-padded square matrix."""
    if cm.counts.size == 0:
        raise ValueError("confusion matrix is empty")
    r, c = cm.counts.shape
    padded, row_ind, col_ind = _matching(cm)
    # order rows by the column each one was matched to
    perm = [int(i) for i in row_ind[np.argsort(col_ind)]]
    new_counts = padded[perm, :][:, :c]
    new_row_ids = [cm.row_ids[i] if i < r else None for i in perm]
    # drop padding rows that carry no counts
    keep = [i for i, rid in enumerate(new_row_ids) if rid is not None or new_counts[i].any()]
    return ConfusionMatrix(new_counts[keep], [new_row_ids[i] for i in keep], list(cm.col_ids))


def aligned_diagonal_weight(cm: ConfusionMatrix) -> int:
    """Weight of the optimal cluster-to-class matching (one-to-one)."""
    padded, row_ind, col_ind = _matching(cm)
    return int(padded[row_ind, col_ind].sum())


def paired_significance(
    f1_a: Sequence[float], f1_b: Sequence[float], level: float = 0.05
) -> SignificanceResult:
    """Two-sided paired t-test on per-partition F1 differences.

    Identical lists give p = 1; a constant nonzero difference (zero variance)
    is treated as p = 0 in favor of the larger side."""
    if len(f1_a) != len(f1_b):
        raise ValueError("paired samples must have equal length")
    if len(f1_a) < 2:
        raise ValueError("need at least 2 pairs")
    diffs = np.asarray(f1_a, dtype=np.float64) - np.asarray(f1_b, dtype=np.float64)
    mean_diff = float(diffs.mean())
    if np.allclose(diffs.std(), 0.0):
        if mean_diff == 0.0:
            return SignificanceResult(SignificanceOutcome.NONE, 1.0, 0.0)
        p = 0.0
    else:
        p = float(stats.ttest_rel(f1_a, f1_b).pvalue)
    if p < level and mean_diff > 0:
        return SignificanceResult(SignificanceOutcome.A_SIG, p, mean_diff)
    if p < level and mean_diff < 0:
        return SignificanceResult(SignificanceOutcome.B_SIG, p, mean_diff)
    return SignificanceResult(SignificanceOutcome.NONE, p, mean_diff)


def evaluate_run(
    assignments: Sequence[int],
    gold_labels: Sequence[int],
    seeded_class_ids: Iterable[int],
) -> EvaluationReport:
    """Full report for one run over the evaluated (test) instances."""
    seeded = sorted(seeded_class_ids)
    return EvaluationReport(
        macro_f1_seed=seed_macro_f1(assignments, gold_labels, seeded),
        per_class_prf=per_class_prf(assignments, gold_labels, seeded),
        num_clusters=len(set(assignments)),
        aligned_confusion=align_confusion(build_confusion(assignments, gold_labels)),
    )

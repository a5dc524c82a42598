"""Cluster-to-class labeling, confusion alignment, seed-class macro F1 and
paired significance tests across partitions."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

GRID_PER_PAIR = 4  # the widest (cluster x gold) grid build_confusion counts directly, per pair


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


def per_class_prf(
    assignments: Sequence[int],
    gold_ids: Sequence[int],
    class_ids: Iterable[int],
) -> list[dict]:
    """Precision/recall/F1 per gold class after majority labeling of the
    clusters. A class with neither predictions nor gold members scores 0."""
    cm = build_confusion(assignments, gold_ids)
    label = cm.counts.argmax(axis=1) if cm.row_ids else np.zeros(0, dtype=np.int64)
    k = len(cm.col_ids)
    # per gold class: instances labeled with it, those of them in it, its size
    predicted = np.bincount(label, cm.counts.sum(axis=1), k)
    correct = np.bincount(label, cm.counts[np.arange(len(label)), label], k)
    sizes = cm.counts.sum(axis=0)
    counts = {
        y: (int(correct[j]), int(predicted[j]), int(sizes[j])) for j, y in enumerate(cm.col_ids)
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
    gold_ids: Sequence[int],
    seeded_class_ids: Iterable[int],
) -> float:
    """Unweighted mean F1 restricted to the seeded classes."""
    rows = per_class_prf(assignments, gold_ids, seeded_class_ids)
    if not rows:
        raise ValueError("no seeded classes to evaluate")
    return float(np.mean([r["f1"] for r in rows]))


def eval_rows(d, p, include_seeds: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The rows of dataset d that a run on partition p is scored on, in
    order, and their gold class ids: the rows with a gold label, among the
    unlabeled rows or, with include_seeds, among all rows."""
    pool = np.arange(len(d)) if include_seeds else p.unlabeled_idx
    gold = d.gold_ids[pool]
    known = gold >= 0
    return pool[known], gold[known]


def build_confusion(
    assignments: Sequence[int], gold_ids: Sequence[int]
) -> ConfusionMatrix:
    """Counts of (cluster, gold class) pairs; rows and columns in sorted id order.

    Non-negative integer ids whose (cluster x gold) grid holds at most
    GRID_PER_PAIR cells per pair are counted over that whole grid in one
    pass, then the rows and columns no pair reached are dropped; any other
    ids (negative, huge or not integers) are coded by sorting."""
    if len(assignments) != len(gold_ids):
        raise ValueError("assignments and gold_ids must align")
    a, g = _id_array(assignments), _id_array(gold_ids)
    grid = _id_grid(a, g)
    if grid is not None:
        rows, cols = grid
        pairs = a.astype(np.intp, copy=False) * cols + g.astype(np.intp, copy=False)
        counts = np.bincount(pairs, minlength=rows * cols).reshape(rows, cols)
        row_ids = np.flatnonzero(counts.any(axis=1))
        col_ids = np.flatnonzero(counts.any(axis=0))
        counts = counts[row_ids][:, col_ids]
    else:
        row_ids, r = np.unique(a, return_inverse=True)
        col_ids, c = np.unique(g, return_inverse=True)
        shape = (len(row_ids), len(col_ids))
        counts = np.bincount(r * shape[1] + c, minlength=shape[0] * shape[1]).reshape(shape)
    return ConfusionMatrix(counts.astype(np.int64, copy=False), row_ids.tolist(),
                           col_ids.tolist())


def _id_array(ids: Sequence) -> np.ndarray:
    """ids as numpy reads them, except that integers numpy would read as
    float64 (a list holding ids past int64 beside others) are kept as Python
    ints, so that no two of them merge."""
    a = np.asarray(ids)
    if a.dtype.kind == "f" and not isinstance(ids, np.ndarray) \
            and all(isinstance(i, (int, np.integer)) for i in ids):
        return np.array(ids, dtype=object)
    return a


def _id_grid(a: np.ndarray, g: np.ndarray):
    """(rows, cols) of the grid of id pairs (a, g), with every id an index
    into it, if both arrays hold non-empty non-negative integers and the
    grid has at most GRID_PER_PAIR cells per pair; else None."""
    if not len(a) or a.dtype.kind not in "iu" or g.dtype.kind not in "iu":
        return None
    if a.min() < 0 or g.min() < 0:
        return None
    rows, cols = int(a.max()) + 1, int(g.max()) + 1
    return (rows, cols) if rows * cols <= GRID_PER_PAIR * len(a) else None


def _matching(cm: ConfusionMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The counts zero-padded to a square, and a maximum-weight matching on it."""
    # imported on first use: at import time it would cost every process ~26 MB
    from scipy.optimize import linear_sum_assignment

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
        # imported on first use: at import time it would cost every process ~49 MB
        from scipy import stats

        p = float(stats.ttest_rel(f1_a, f1_b).pvalue)
    if p < level and mean_diff > 0:
        return SignificanceResult(SignificanceOutcome.A_SIG, p, mean_diff)
    if p < level and mean_diff < 0:
        return SignificanceResult(SignificanceOutcome.B_SIG, p, mean_diff)
    return SignificanceResult(SignificanceOutcome.NONE, p, mean_diff)


def evaluate_run(
    assignments: Sequence[int],
    gold_ids: Sequence[int],
    seeded_class_ids: Iterable[int],
) -> EvaluationReport:
    """Full report for one run over the evaluated (test) instances."""
    rows = per_class_prf(assignments, gold_ids, seeded_class_ids)
    if not rows:
        raise ValueError("no seeded classes to evaluate")
    return EvaluationReport(
        macro_f1_seed=float(np.mean([r["f1"] for r in rows])),
        per_class_prf=rows,
        num_clusters=len(set(assignments)),
        aligned_confusion=align_confusion(build_confusion(assignments, gold_ids)),
    )

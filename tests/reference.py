"""Reference helpers for the tests.

The library builds every Dataset from one CSR matrix. These helpers build
sparse vectors one row at a time, and a dataset from such rows, so that
tests can state small inputs by hand and check the matrix code against a
plain per-row computation. The oracles at the end (majority labeling,
matching weight, the Bayes classifier's accuracy) have no caller in the
library.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from exploressl.data import Dataset, Norm, SparseVector
from exploressl.evaluation import ConfusionMatrix, _matching, build_confusion
from exploressl.synth import GeneratorFamily, SyntheticSpec, multinomial_class_distributions


def from_pairs(pairs: Iterable[tuple[int, float]]) -> SparseVector:
    """The vector of (feature id, weight) pairs in any order; zero weights
    are dropped."""
    items = sorted((int(i), float(w)) for i, w in pairs if w != 0.0)
    idx, val = zip(*items) if items else ((), ())
    return SparseVector(np.array(idx, dtype=np.int64), np.array(val, dtype=np.float64))


def from_dense(dense: Sequence[float]) -> SparseVector:
    """The nonzeros of a dense vector."""
    arr = np.asarray(dense, dtype=np.float64)
    idx = np.nonzero(arr)[0]
    return SparseVector(idx.astype(np.int64), arr[idx])


def entries(x: SparseVector) -> list[tuple[int, float]]:
    """x as a list of (feature id, weight) pairs, ids increasing."""
    return list(zip(x.indices.tolist(), x.values.tolist()))


def norm(x: SparseVector, kind: Norm) -> float:
    """The L1 or L2 norm of x, one np.sum over its weights."""
    if kind is Norm.L1:
        return float(np.sum(np.abs(x.values)))
    return float(np.sqrt(np.sum(x.values**2)))


def to_dense(x: SparseVector, size: int) -> np.ndarray:
    out = np.zeros(size)
    out[x.indices] = x.values
    return out


def normalize(x: SparseVector, kind: Norm) -> SparseVector:
    """x scaled to unit L1 or L2 norm, as normalize_dataset scales each row.
    All-zero input is rejected."""
    n = norm(x, kind)
    if n == 0.0:
        raise ValueError("degenerate instance: cannot normalize all-zero vector")
    scaled = x.values / n
    # subnormal weights can underflow to exactly zero; drop those entries
    keep = scaled != 0.0
    return SparseVector(x.indices[keep], scaled[keep])


def from_rows(rows: Sequence[SparseVector], gold_ids: Sequence[int],
              vocab_size: int, instance_ids: Optional[Sequence[str]] = None,
              label_names: Optional[Sequence[str]] = None) -> Dataset:
    """The dataset whose instance i is rows[i]."""
    indptr = np.cumsum([0] + [x.nnz for x in rows])
    indices = np.concatenate([x.indices for x in rows] + [np.zeros(0, np.int64)])
    values = np.concatenate([x.values for x in rows] + [np.zeros(0)])
    X = sp.csr_matrix((values, indices, indptr), shape=(len(rows), max(vocab_size, 0)))
    return Dataset(X, gold_ids, instance_ids, label_names)


def majority_label_clusters(
    assignments: Sequence[int], gold_labels: Sequence[int]
) -> dict[int, int]:
    """Map every non-empty cluster to its most frequent gold class
    (ties to the lowest gold id). Many-to-one mappings are allowed."""
    cm = build_confusion(assignments, gold_labels)
    if not cm.row_ids:
        return {}
    return dict(zip(cm.row_ids, (cm.col_ids[j] for j in cm.counts.argmax(axis=1))))


def aligned_diagonal_weight(cm: ConfusionMatrix) -> int:
    """Weight of the optimal cluster-to-class matching (one-to-one), from
    the matching align_confusion uses."""
    padded, row_ind, col_ind = _matching(cm)
    return int(padded[row_ind, col_ind].sum())


def bayes_oracle_accuracy(spec: SyntheticSpec, num_draws: int = 1000) -> float:
    """Monte Carlo accuracy of the true-parameter Bayes classifier on fresh
    multinomial draws; an independent yardstick for separation settings."""
    if spec.family is not GeneratorFamily.MULTINOMIAL:
        raise ValueError("oracle defined for the multinomial generator")
    rng = np.random.default_rng(np.random.SeedSequence([spec.rng_seed, 5]))
    dists = multinomial_class_distributions(spec)
    log_dists = np.log(dists)
    correct = 0
    for _ in range(num_draws):
        c = rng.integers(spec.num_classes)
        counts = rng.multinomial(spec.doc_length, dists[c])
        scores = log_dists @ counts
        if int(np.argmax(scores)) == c:
            correct += 1
    return correct / num_draws

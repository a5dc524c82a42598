"""Reference helpers for the tests.

The library builds every Dataset from one CSR matrix, and a single instance
is a 1-row CSR matrix, as Dataset.row gives it. These helpers build such rows
by hand, and a dataset from such rows, so that tests can state small inputs
and check the matrix code against a plain per-row computation;
read_sparse_triplet reads a file that way for the loader's tests. The oracles
at the end (majority labeling, matching weight, the Bayes classifier's
accuracy) have no caller in the library.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from exploressl.data import Dataset, Norm
from exploressl.evaluation import ConfusionMatrix, _matching, build_confusion
from exploressl.synth import GeneratorFamily, SyntheticSpec, multinomial_class_distributions


def from_pairs(pairs: Iterable[tuple[int, float]], width: Optional[int] = None) -> sp.csr_matrix:
    """The 1 x width row of (feature id, weight) pairs in any order; zero
    weights are dropped. width defaults to one past the largest id."""
    items = sorted((int(i), float(w)) for i, w in pairs if w != 0.0)
    idx, val = zip(*items) if items else ((), ())
    if width is None:
        width = idx[-1] + 1 if idx else 0
    return sp.csr_matrix((np.array(val, dtype=np.float64), np.array(idx, dtype=np.int64),
                          [0, len(idx)]), shape=(1, width))


def from_dense(dense: Sequence[float]) -> sp.csr_matrix:
    """The nonzeros of a dense vector, as a row of its length."""
    arr = np.asarray(dense, dtype=np.float64)
    return sp.csr_matrix(arr[None, :])


def entries(x: sp.csr_matrix) -> list[tuple[int, float]]:
    """The row x as a list of (feature id, weight) pairs, ids increasing."""
    return list(zip(x.indices.tolist(), x.data.tolist()))


def norm(x: sp.csr_matrix, kind: Norm) -> float:
    """The L1 or L2 norm of the row x, one np.sum over its weights."""
    if kind is Norm.L1:
        return float(np.sum(np.abs(x.data)))
    return float(np.sqrt(np.sum(x.data**2)))


def normalize(x: sp.csr_matrix, kind: Norm) -> sp.csr_matrix:
    """The row x scaled to unit L1 or L2 norm, as normalize_dataset scales
    each row. All-zero input is rejected."""
    n = norm(x, kind)
    if n == 0.0:
        raise ValueError("degenerate instance: cannot normalize all-zero vector")
    scaled = x.data / n
    # subnormal weights can underflow to exactly zero; drop those entries
    keep = scaled != 0.0
    return sp.csr_matrix((scaled[keep], x.indices[keep], [0, int(keep.sum())]), shape=x.shape)


def from_rows(rows: Sequence[sp.csr_matrix], gold_ids: Sequence[int],
              vocab_size: int, instance_ids: Optional[Sequence[str]] = None,
              label_names: Optional[Sequence[str]] = None) -> Dataset:
    """The dataset whose instance i is the row rows[i]; a row may be
    narrower than vocab_size."""
    indptr = np.cumsum([0] + [x.nnz for x in rows])
    indices = np.concatenate([x.indices for x in rows] + [np.zeros(0, np.int64)])
    values = np.concatenate([x.data for x in rows] + [np.zeros(0)])
    X = sp.csr_matrix((values, indices, indptr), shape=(len(rows), max(vocab_size, 0)))
    return Dataset(X, gold_ids, instance_ids, label_names)


def read_sparse_triplet(path) -> dict:
    """A well-formed sparse-triplet file read one line at a time, with no
    blocks and no scan: the CSR arrays (int64 ids and row pointers, float64
    weights; zero counts dropped, each row's ids sorted), the vocabulary size
    and the labels as load_dataset numbers them."""
    labels, rows, vocab = [], [], None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            words = line.split()
            if not words:
                continue
            if words[0].startswith("%%vocab"):
                vocab = int(words[1])
                continue
            labels.append(words[0])
            pairs = sorted((int(f), float(c)) for f, c in (w.split(":") for w in words[1:]))
            rows.append([(f, c) for f, c in pairs if c != 0.0])
    names = sorted(set(labels))
    ids = [f for row in rows for f, _ in row]
    return {
        "data": np.array([c for row in rows for _, c in row], dtype=np.float64),
        "indices": np.array(ids, dtype=np.int64),
        "indptr": np.cumsum([0] + [len(row) for row in rows], dtype=np.int64),
        "vocab_size": vocab if vocab is not None else max(ids) + 1,
        "gold_ids": [names.index(label) for label in labels],
        "instance_ids": [str(i) for i in range(len(rows))],
        "label_names": names,
    }


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

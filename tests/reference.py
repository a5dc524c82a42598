"""One-row reference helpers for the tests.

The library builds every Dataset from one CSR matrix. These helpers build
sparse vectors one row at a time, and a dataset from such rows, so that
tests can state small inputs by hand and check the matrix code against a
plain per-row computation.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from exploressl.data import Dataset, Norm, SparseVector


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


def from_rows(rows: Sequence[SparseVector], gold_labels: Sequence[Optional[int]],
              vocab_size: int, instance_ids: Optional[Sequence[str]] = None,
              label_names: Optional[Sequence[str]] = None) -> Dataset:
    """The dataset whose instance i is rows[i]."""
    indptr = np.cumsum([0] + [x.nnz for x in rows])
    indices = np.concatenate([x.indices for x in rows] + [np.zeros(0, np.int64)])
    values = np.concatenate([x.values for x in rows] + [np.zeros(0)])
    X = sp.csr_matrix((values, indices, indptr), shape=(len(rows), max(vocab_size, 0)))
    return Dataset(X, gold_labels, instance_ids, label_names)

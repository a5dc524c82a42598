"""Sparse instances, TF-IDF weighting, dataset loading and seeded partitions."""

from __future__ import annotations

import csv
import logging
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

log = logging.getLogger(__name__)

LINES_PER_PARSE = 256  # sparse-triplet lines whose entries are parsed together


class Norm(Enum):
    L1 = "l1"
    L2 = "l2"


class DataFormatError(ValueError):
    """Raised for malformed or out-of-bounds input files."""


@dataclass(frozen=True)
class SparseVector:
    """Sorted sparse feature vector: parallel (feature id, weight) arrays.

    Feature ids are strictly increasing, weights finite and nonzero.
    """

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        val = np.asarray(self.values, dtype=np.float64)
        if idx.shape != val.shape or idx.ndim != 1:
            raise ValueError("indices and values must be parallel 1-d arrays")
        fault = _row_fault(np.array([0, idx.size]), idx, val)
        if fault:
            raise ValueError(fault[1])
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, float]]) -> "SparseVector":
        items = sorted((int(i), float(w)) for i, w in pairs if w != 0.0)
        idx, val = zip(*items) if items else ((), ())
        return cls(np.array(idx, dtype=np.int64), np.array(val, dtype=np.float64))

    @classmethod
    def from_dense(cls, dense: Sequence[float]) -> "SparseVector":
        arr = np.asarray(dense, dtype=np.float64)
        idx = np.nonzero(arr)[0]
        return cls(idx.astype(np.int64), arr[idx])

    @property
    def entries(self) -> list[tuple[int, float]]:
        return list(zip(self.indices.tolist(), self.values.tolist()))

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def norm(self, kind: Norm) -> float:
        if kind is Norm.L1:
            return float(np.sum(np.abs(self.values)))
        return float(np.sqrt(np.sum(self.values**2)))

    def to_dense(self, size: int) -> np.ndarray:
        out = np.zeros(size)
        out[self.indices] = self.values
        return out


def normalize(x: SparseVector, norm: Norm) -> SparseVector:
    """Scale x to unit L1 or L2 norm. All-zero input is rejected."""
    n = x.norm(norm)
    if n == 0.0:
        raise ValueError("degenerate instance: cannot normalize all-zero vector")
    scaled = x.values / n
    # subnormal weights can underflow to exactly zero; drop those entries
    keep = scaled != 0.0
    return SparseVector(x.indices[keep], scaled[keep])


class Dataset:
    """Immutable collection of sparse instances with optional gold labels.

    The instances are the rows of one canonical CSR matrix (n x vocab_size):
    int64 feature ids strictly increasing within each row, float64 weights
    finite and nonzero, checked once here. ``gold_labels[i]`` is a dense
    class id or None. ``label_names`` maps class id back to the original
    label string.
    """

    def __init__(
        self,
        X: sp.csr_matrix,
        gold_labels: Sequence[Optional[int]],
        instance_ids: Optional[Sequence[str]] = None,
        label_names: Optional[Sequence[str]] = None,
    ):
        if not (sp.issparse(X) and X.format == "csr"):
            raise TypeError("instances must be a scipy CSR matrix")
        n, vocab_size = X.shape
        if n == 0:
            raise DataFormatError("no instances")
        if len(gold_labels) != n:
            raise ValueError("gold_labels length mismatch")
        if vocab_size <= 0:
            raise ValueError("vocab_size must be positive")
        X = sp.csr_matrix(X, dtype=np.float64)  # a new object; the arrays are shared
        X.indices = X.indices.astype(np.int64, copy=False)
        X.indptr = X.indptr.astype(np.int64, copy=False)
        if np.any(np.diff(X.indptr) < 0):
            raise DataFormatError("row pointers must not decrease")
        fault = _row_fault(X.indptr, X.indices, X.data, vocab_size)
        if fault:
            raise DataFormatError(f"instance {fault[0]}: {fault[1]}")
        self._X = X
        self.gold_labels = list(gold_labels)
        self.vocab_size = int(vocab_size)
        self.instance_ids = (
            list(instance_ids) if instance_ids is not None else [str(i) for i in range(n)]
        )
        if len(self.instance_ids) != n:
            raise ValueError("instance_ids length mismatch")
        self.label_names = list(label_names) if label_names is not None else None

    @classmethod
    def from_rows(cls, rows: Sequence[SparseVector], gold_labels: Sequence[Optional[int]],
                  vocab_size: int, instance_ids: Optional[Sequence[str]] = None,
                  label_names: Optional[Sequence[str]] = None) -> "Dataset":
        """Dataset whose instance i is rows[i]."""
        indptr = np.cumsum([0] + [x.nnz for x in rows])
        indices = np.concatenate([x.indices for x in rows] + [np.zeros(0, np.int64)])
        values = np.concatenate([x.values for x in rows] + [np.zeros(0)])
        X = sp.csr_matrix((values, indices, indptr), shape=(len(rows), max(vocab_size, 0)))
        return cls(X, gold_labels, instance_ids, label_names)

    def __len__(self) -> int:
        return self._X.shape[0]

    def matrix(self) -> sp.csr_matrix:
        """The instances as one CSR matrix (n x vocab_size)."""
        return self._X

    def row(self, i: int) -> SparseVector:
        """Instance i, as a view of its row of the matrix."""
        i = range(len(self))[i]
        a, b = self._X.indptr[i], self._X.indptr[i + 1]
        return SparseVector(self._X.indices[a:b], self._X.data[a:b])

    @property
    def instances(self) -> list[SparseVector]:
        """Every instance, in order; built on each access."""
        return [self.row(i) for i in range(len(self))]

    def class_counts(self) -> dict[int, int]:
        return dict(Counter(y for y in self.gold_labels if y is not None))


def _row_fault(indptr, indices, values, width=np.inf) -> Optional[tuple[int, str]]:
    """The first row of CSR arrays that is not canonical, and its fault."""
    step_up = np.ones(len(indices), dtype=bool)
    step_up[1:] = indices[1:] > indices[:-1]
    step_up[indptr[:-1][np.diff(indptr) > 0]] = True  # no entry of its row precedes it
    for bad, what in (
        (indices >= width, f"feature id >= vocab size {width}"),
        (~step_up | (indices < 0), "feature ids must be non-negative and strictly increasing"),
        (~np.isfinite(values), "weights must be finite"),
        (values == 0.0, "explicit zero weights are not allowed"),
    ):
        if bad.any():
            return int(np.searchsorted(indptr, np.argmax(bad), side="right")) - 1, what
    return None


@dataclass(frozen=True)
class SeedPartition:
    """One train/test split: seeded classes, labeled and unlabeled index sets."""

    seeded_class_ids: frozenset[int]
    labeled_idx: frozenset[int]
    unlabeled_idx: frozenset[int]
    rng_seed: int

    def __post_init__(self):
        if self.labeled_idx & self.unlabeled_idx:
            raise ValueError("labeled and unlabeled index sets overlap")

    def validate(self, d: Dataset) -> None:
        if self.labeled_idx | self.unlabeled_idx != set(range(len(d))):
            raise ValueError("partition does not cover the dataset exactly")
        for i in self.labeled_idx:
            if d.gold_labels[i] not in self.seeded_class_ids:
                raise ValueError(f"labeled instance {i} has non-seeded label")


def load_dataset(
    path: str | Path,
    format: str = "sparse-triplet",
) -> Dataset:
    """Load a dataset file.

    sparse-triplet: one instance per line, ``<label> <fid>:<count> ...``,
    0-based feature ids. An optional first line ``%%vocab <N>`` declares the
    vocabulary size; otherwise it is inferred.

    dense-csv: header ``label,f0,f1,...`` then one row per instance.
    """
    path = Path(path)
    if format == "sparse-triplet":
        return _load_sparse_triplet(path)
    if format == "dense-csv":
        return _load_dense_csv(path)
    raise ValueError(f"unknown dataset format: {format!r}")


def _load_sparse_triplet(path: Path) -> Dataset:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")  # the lines iterating fh gives
    # parse the entries a block of lines at a time, which bounds the strings
    # alive at once; on any fault, reading the lines one entry at a time
    # names the first bad line, so errors come in file order
    try:
        raw_labels, entries, declared = _read_lines(lines)
        if not raw_labels:
            raise DataFormatError("no instances")
        blocks = range(0, len(entries), LINES_PER_PARSE)
        parsed = [_parse_entries(entries[i : i + LINES_PER_PARSE]) for i in blocks]
        fids, counts, lengths = (np.concatenate(column) for column in zip(*parsed))
        if np.any(fids < 0):
            raise ValueError("negative feature id")
        keep = counts != 0.0
        max_fid = int(fids[keep].max()) if keep.any() else -1
        vocab = declared if declared is not None else max_fid + 1
        if max_fid >= vocab:
            raise DataFormatError(f"feature id {max_fid} >= declared vocab size {vocab}")
        rows = np.repeat(np.arange(len(raw_labels)), lengths)[keep]
        indptr = np.cumsum(np.bincount(rows + 1, minlength=len(raw_labels) + 1))
        X = sp.csr_matrix((counts[keep], fids[keep], indptr), shape=(len(raw_labels), vocab))
        X.sort_indices()
        return _finish(X, raw_labels)
    except (ValueError, OverflowError) as e:
        error = e
    _read_lines(lines, check=True)
    raise error


def _parse_entries(entries: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Feature ids, counts and entries per line of the entry text of some
    lines; ValueError or OverflowError if an entry is not <int>:<float>."""
    tokens = " ".join(entries).split()
    joined = " ".join(tokens)
    seps = np.frombuffer(joined.encode(), np.uint8)
    seps = seps[(seps == ord(":")) | (seps == ord(" "))]
    if len(seps) != max(2 * len(tokens) - 1, 0) or np.any(seps[0::2] != ord(":")):
        raise ValueError("an entry without exactly one ':'")
    fields = joined.replace(":", " ").split(" ") if tokens else []
    lengths = np.array([e.count(":") for e in entries], dtype=np.int64)  # one ':' per entry
    # converting a string to int64 or float64 calls int() or float() on it
    fids = np.array(fields[0::2], dtype=np.int64)
    return fids, np.array(fields[1::2], dtype=np.float64), lengths


def _read_lines(lines: Sequence[str], check: bool = False):
    """The labels, the text after each label and the declared vocabulary size
    of a sparse-triplet file. With check, every entry is also read on its
    own, and the first bad line raises DataFormatError."""
    labels: list[str] = []
    entries: list[str] = []
    declared: Optional[int] = None
    for lineno, line in enumerate(lines, start=1):
        parts = line.split(None, 1)
        if not parts:
            continue
        if parts[0].startswith("%%vocab"):
            try:
                declared = int(line.split()[1])
            except (IndexError, ValueError):
                raise DataFormatError(f"line {lineno}: malformed vocab header") from None
            continue
        labels.append(parts[0])
        entries.append(parts[1] if len(parts) > 1 else "")
        if not check:
            continue
        pairs = []
        for token in entries[-1].split():
            try:
                fid_s, cnt_s = token.split(":", 1)
                fid, cnt = int(fid_s), float(cnt_s)
                if fid >= 2**63:
                    raise ValueError("feature id beyond int64")
            except ValueError:
                raise DataFormatError(f"line {lineno}: malformed entry {token!r}") from None
            if fid < 0:
                raise DataFormatError(f"line {lineno}: negative feature id")
            if cnt != 0.0:
                pairs.append((fid, cnt))
        try:
            SparseVector.from_pairs(pairs)
        except ValueError as e:
            raise DataFormatError(f"line {lineno}: {e}") from None
    return labels, entries, declared


def _load_dense_csv(path: Path) -> Dataset:
    rows: list[list[float]] = []
    raw_labels: list[str] = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataFormatError("no instances")
        vocab = len(header) - 1
        if vocab <= 0:
            raise DataFormatError("dense-csv header must declare at least one feature")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != vocab + 1:
                raise DataFormatError(f"line {lineno}: expected {vocab + 1} columns")
            try:
                values = [float(v) for v in row[1:]]
                if not all(map(math.isfinite, values)):
                    raise ValueError("non-finite value")
            except ValueError:
                raise DataFormatError(f"line {lineno}: non-numeric value")
            raw_labels.append(row[0])
            rows.append(values)
    if not rows:
        raise DataFormatError("no instances")
    return _finish(sp.csr_matrix(np.array(rows)), raw_labels)


_MISSING_LABEL = ""


def _finish(X: sp.csr_matrix, raw_labels: list[str]) -> Dataset:
    names = sorted({s for s in raw_labels if s != _MISSING_LABEL})
    to_id = {name: i for i, name in enumerate(names)}
    gold = [to_id[s] if s != _MISSING_LABEL else None for s in raw_labels]
    return Dataset(X, gold, label_names=names)


def write_label_map(d: Dataset, path: str | Path) -> None:
    """Emit the label-string -> dense-id mapping as two-column CSV."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "class_id"])
        for class_id, name in enumerate(d.label_names or []):
            writer.writerow([name, class_id])


def write_sparse_triplet(d: Dataset, path: str | Path) -> None:
    """Write a dataset in sparse-triplet format (inverse of load_dataset)."""
    X = d.matrix()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"%%vocab {d.vocab_size}\n")
        for row, y in enumerate(d.gold_labels):
            label = d.label_names[y] if (y is not None and d.label_names) else (
                str(y) if y is not None else _MISSING_LABEL
            )
            part = slice(X.indptr[row], X.indptr[row + 1])
            entries = " ".join(
                f"{i}:{v:g}" for i, v in zip(X.indices[part].tolist(), X.data[part].tolist())
            )
            fh.write(f"{label} {entries}\n".rstrip() + "\n")


def tfidf_weight(d: Dataset) -> Dataset:
    """Reweight raw counts to tf * ln(N / df).

    Terms appearing in every instance get weight 0 and vanish from the
    sparsity pattern. Instances that become all-zero are dropped, and one
    warning gives their count (their removal is reported so partitions stay
    consistent).
    """
    X = d.matrix()
    df = np.bincount(X.indices, minlength=d.vocab_size)
    idf = np.log(len(d) / np.maximum(df, 1))  # read only where df >= 1
    # copies, as eliminate_zeros compacts the arrays in place
    W = sp.csr_matrix((X.data * idf[X.indices], X.indices, X.indptr), shape=X.shape, copy=True)
    W.eliminate_zeros()
    empty = np.diff(W.indptr) == 0
    if empty.any():
        dropped = [d.instance_ids[i] for i in np.flatnonzero(empty)]
        log.warning(
            "dropping %d instance(s) all-zero after tf-idf: %s%s",
            len(dropped), ", ".join(dropped[:5]), ", ..." if len(dropped) > 5 else "",
        )
        if empty.all():
            raise DataFormatError("no instances survive tf-idf weighting")
    weighted = Dataset(W, d.gold_labels, d.instance_ids, d.label_names)
    return subset(weighted, np.flatnonzero(~empty)) if empty.any() else weighted


def _row_norms(X: sp.csr_matrix, norm: Norm) -> np.ndarray:
    """SparseVector.norm of every row of X, bit for bit.

    np.sum adds a row's entries pairwise. Summing a (rows, L) gather of the
    rows with L entries along axis 1 keeps that order; a sum over a padded
    block or np.add.reduceat does not."""
    v = np.abs(X.data) if norm is Norm.L1 else X.data**2
    lengths = np.diff(X.indptr)
    sums = np.zeros(X.shape[0])
    for length in np.unique(lengths):
        rows = np.flatnonzero(lengths == length)
        sums[rows] = v[X.indptr[rows, None] + np.arange(length)].sum(axis=1)
    return sums if norm is Norm.L1 else np.sqrt(sums)


def normalize_dataset(d: Dataset, norm: Norm) -> Dataset:
    """normalize() applied to every instance, as one scale per row."""
    X = d.matrix()
    norms = _row_norms(X, norm)
    if not norms.all():
        raise ValueError("degenerate instance: cannot normalize all-zero vector")
    scaled = X.data / np.repeat(norms, np.diff(X.indptr))
    Y = sp.csr_matrix((scaled, X.indices, X.indptr), shape=X.shape, copy=True)
    Y.eliminate_zeros()  # subnormal weights can underflow to exactly zero
    return Dataset(Y, d.gold_labels, d.instance_ids, d.label_names)


def subset(d: Dataset, indices: Sequence[int]) -> Dataset:
    """Dataset restricted to the given instance indices, order preserved."""
    idx = np.asarray(indices, dtype=np.int64)
    return Dataset(
        d.matrix()[idx],
        [d.gold_labels[i] for i in idx.tolist()],
        [d.instance_ids[i] for i in idx.tolist()],
        d.label_names,
    )


def choose_seeded_classes(d: Dataset, num_seed_classes: int) -> list[int]:
    """Default seeded-class choice: the largest classes, ties to lower id."""
    counts = d.class_counts()
    if num_seed_classes > len(counts):
        raise ValueError(
            f"num_seed_classes={num_seed_classes} exceeds {len(counts)} distinct classes"
        )
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return sorted(c for c, _ in ranked[:num_seed_classes])


def make_partitions(
    d: Dataset,
    num_seed_classes: int,
    seeds_fraction: float,
    num_partitions: int,
    rng_seed: int,
    seeded_class_ids: Optional[Sequence[int]] = None,
) -> list[SeedPartition]:
    """Generate deterministic seeded train/test partitions.

    Every partition seeds the same classes; per seeded class,
    ceil(seeds_fraction * class size) instances (minimum 1) are labeled.
    """
    if not (0.0 < seeds_fraction < 1.0):
        raise ValueError("seeds_fraction must be in (0, 1)")
    if num_partitions < 1:
        raise ValueError("num_partitions must be positive")
    if seeded_class_ids is None:
        seeded = choose_seeded_classes(d, num_seed_classes)
    else:
        seeded = sorted(set(int(c) for c in seeded_class_ids))
        if len(seeded) != num_seed_classes:
            raise ValueError("seeded_class_ids must contain num_seed_classes distinct ids")
    counts = d.class_counts()
    for c in seeded:
        if counts.get(c, 0) == 0:
            raise ValueError(f"seeded class {c} has no instances")

    by_class: dict[int, list[int]] = {c: [] for c in seeded}
    for i, y in enumerate(d.gold_labels):
        if y in by_class:
            by_class[y].append(i)

    partitions = []
    for j in range(num_partitions):
        rng = np.random.default_rng(np.random.SeedSequence([rng_seed, j]))
        labeled: set[int] = set()
        for c in seeded:
            members = by_class[c]
            n_seed = max(1, math.ceil(seeds_fraction * len(members)))
            picked = rng.choice(len(members), size=n_seed, replace=False)
            labeled.update(members[i] for i in picked)
        unlabeled = set(range(len(d))) - labeled
        partitions.append(
            SeedPartition(
                seeded_class_ids=frozenset(seeded),
                labeled_idx=frozenset(labeled),
                unlabeled_idx=frozenset(unlabeled),
                rng_seed=rng_seed,
            )
        )
    return partitions

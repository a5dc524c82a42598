"""Sparse instances, TF-IDF weighting, dataset loading and seeded partitions."""

from __future__ import annotations

import csv
import itertools
import logging
import math
from dataclasses import dataclass, fields
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


class Dataset:
    """Immutable collection of sparse instances with optional gold labels.

    The instances are the rows of one canonical CSR matrix (n x vocab_size):
    int64 feature ids strictly increasing within each row, float64 weights
    finite and nonzero, checked once here. The matrix keeps read-only views of
    the arrays it is given, so datasets can share them and none can change
    them in place. ``gold_ids`` is a read-only int64 array: row i's dense
    class id, or -1 where it has no label.
    ``label_names`` maps class id back to the original label string.
    """

    def __init__(
        self,
        X: sp.csr_matrix,
        gold_ids: Sequence[int],
        instance_ids: Optional[Sequence[str]] = None,
        label_names: Optional[Sequence[str]] = None,
    ):
        if not (sp.issparse(X) and X.format == "csr"):
            raise TypeError("instances must be a scipy CSR matrix")
        n, vocab_size = X.shape
        if n == 0:
            raise DataFormatError("no instances")
        gold = np.asarray(gold_ids)
        if gold.shape != (n,):
            raise ValueError("gold_ids length mismatch")
        if gold.dtype.kind not in "iu" or np.any(gold < -1):
            raise ValueError("gold ids must be integers, -1 for no label")
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
        for name in ("data", "indices", "indptr"):
            view = getattr(X, name).view()  # the caller's own array stays writable
            view.setflags(write=False)
            setattr(X, name, view)
        self._X = X
        self.gold_ids = gold.astype(np.int64)  # a copy the caller cannot write
        self.gold_ids.setflags(write=False)
        self.vocab_size = int(vocab_size)
        self.instance_ids = (
            list(instance_ids) if instance_ids is not None else [str(i) for i in range(n)]
        )
        if len(self.instance_ids) != n:
            raise ValueError("instance_ids length mismatch")
        self.label_names = list(label_names) if label_names is not None else None

    def __len__(self) -> int:
        return self._X.shape[0]

    def matrix(self) -> sp.csr_matrix:
        """The instances as one CSR matrix (n x vocab_size)."""
        return self._X

    def row(self, i: int) -> sp.csr_matrix:
        """Instance i, as a 1 x vocab_size CSR matrix whose data is a view of
        the matrix's."""
        i = range(len(self))[i]
        a, b = self._X.indptr[i], self._X.indptr[i + 1]
        return sp.csr_matrix((self._X.data[a:b], self._X.indices[a:b], [0, b - a]),
                             shape=(1, self.vocab_size))

    @property
    def instances(self) -> list[sp.csr_matrix]:
        """Every instance as row() gives it, in order; built on each access."""
        return [self.row(i) for i in range(len(self))]


def _csr(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
         shape: tuple[int, int]) -> sp.csr_matrix:
    """A CSR matrix that holds the given arrays themselves. scipy's
    constructor copies int64 ids that fit in int32 into an int32 array, which
    Dataset would copy back."""
    X = sp.csr_matrix(shape, dtype=np.float64)
    X.data, X.indices, X.indptr = data, indices, indptr
    return X


def _without_zeros(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray):
    """CSR arrays with every exactly-zero weight dropped: the same arrays when
    no weight is zero, else new ones."""
    zero = data == 0.0
    if not zero.any():
        return data, indices, indptr
    before = np.concatenate(([0], np.cumsum(zero)))  # zeros before each position
    return data[~zero], indices[~zero], indptr - before[indptr]


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


@dataclass(frozen=True, eq=False)
class SeedPartition:
    """One train/test split: the seeded class ids and the labeled and
    unlabeled rows, each kept as a sorted read-only int64 array."""

    seeded_class_ids: np.ndarray
    labeled_idx: np.ndarray
    unlabeled_idx: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            a = np.asarray(getattr(self, f.name))
            if a.size and a.dtype.kind not in "iu":
                raise ValueError(f"{f.name} must hold integers")
            a = np.sort(a.astype(np.int64))
            a.setflags(write=False)
            object.__setattr__(self, f.name, a)

    def validate(self, d: Dataset) -> None:
        # n rows in [0, n) between them cover range(n) exactly when every row
        # is among them, which leaves no room for a repeat or an overlap
        n = len(d)
        rows = np.concatenate([self.labeled_idx, self.unlabeled_idx])
        covered = np.zeros(n, dtype=bool)
        covered[rows[(rows >= 0) & (rows < n)]] = True
        if len(rows) != n or not covered.all():
            raise ValueError("partition does not cover the dataset exactly")
        bad = self.labeled_classes(d) < 0
        if bad.any():
            i = self.labeled_idx[np.argmax(bad)]
            raise ValueError(f"labeled instance {i} has non-seeded label")

    def labeled_classes(self, d: Dataset) -> np.ndarray:
        """For each labeled row, in order, the position of its gold class among
        the sorted seeded class ids; -1 where it has no label or one that is
        not seeded."""
        ids = self.seeded_class_ids
        gold = d.gold_ids[self.labeled_idx]
        y = np.searchsorted(ids, gold)
        seeded = y < len(ids)
        seeded[seeded] = ids[y[seeded]] == gold[seeded]
        return np.where(seeded, y, -1)


def load_dataset(
    path: str | Path,
    format: str = "sparse-triplet",
) -> Dataset:
    """Load a dataset file.

    sparse-triplet: one instance per line, ``<label> <fid>:<count> ...``,
    0-based feature ids, UTF-8 with or without a byte order mark. An optional
    line ``%%vocab <N>``, N > 0, declares the vocabulary size; otherwise it is
    inferred. A header may repeat, but only with the same N, and no other
    line may start with ``%%``.

    dense-csv: header ``label,f0,f1,...`` then one row per instance.
    """
    path = Path(path)
    if format == "sparse-triplet":
        return _load_sparse_triplet(path)
    if format == "dense-csv":
        return _load_dense_csv(path)
    raise ValueError(f"unknown dataset format: {format!r}")


def _load_sparse_triplet(path: Path) -> Dataset:
    # an entry holds one ':', so the file's colons bound its entries
    with open(path, "rb") as fh:
        size = sum(chunk.count(b":") for chunk in iter(lambda: fh.read(1 << 20), b""))
    fids, counts = np.empty(size, dtype=np.int64), np.empty(size)
    labels: list[str] = []
    lengths: list[np.ndarray] = []
    declared: Optional[int] = None
    filled = 0
    # the file is read a block of lines at a time, each block's integer-count
    # entries in one scan and any others by the exact parser, which bounds the
    # text alive at once; on any fault, reading the whole file again one entry
    # at a time names the first bad line, so errors come in file order
    with open(path, encoding="utf-8-sig") as fh:
        try:
            while block := list(itertools.islice(fh, LINES_PER_PARSE)):
                block_labels, entries, declared = _read_lines(block, declared)
                parsed = _scan_int_entries(entries)
                if parsed is None:
                    parsed = _parse_entries(entries)
                block_fids, block_counts, block_lengths = parsed
                fids[filled : filled + len(block_fids)] = block_fids
                counts[filled : filled + len(block_fids)] = block_counts
                filled += len(block_fids)
                labels += block_labels
                lengths.append(block_lengths)
            if not labels:
                raise DataFormatError("no instances")
            fids, counts = fids[:filled], counts[:filled]
            if filled and fids.min() < 0:
                raise ValueError("negative feature id")
            indptr = np.concatenate(([0], np.cumsum(np.concatenate(lengths))))
            counts, fids, indptr = _without_zeros(counts, fids, indptr)
            max_fid = int(fids.max()) if len(fids) else -1
            vocab = declared if declared is not None else max_fid + 1
            if max_fid >= vocab:
                raise DataFormatError(f"feature id {max_fid} >= declared vocab size {vocab}")
            if vocab == 0:
                raise DataFormatError("vocabulary size is 0: no entry has a nonzero count")
            X = _csr(counts, fids, indptr, (len(labels), vocab))
            X.sort_indices()
            return _finish(X, labels)
        except (ValueError, OverflowError) as e:
            error = e
        fh.seek(0)
        _read_lines(fh, check=True)
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


# the bytes of <int>:<int> entries and six of the spaces that str.split
# skips, all of them <= ord(" ")
_ENTRY_BYTES = b"0123456789+-: \t\n\r\x0b\x0c"
_PLACES = 10 ** np.arange(18, dtype=np.int64)  # int64 holds any 18 digits exactly


def _scan_int_entries(
    entries: Sequence[str],
) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """What _parse_entries gives when every entry is <int>:<int> in ASCII,
    read by digit place in a few vectorised passes; None, for _parse_entries
    to decide, when an entry is not, when there is no entry, or when a number
    has more than 18 digits."""
    if entries and entries[0].encode().translate(None, _ENTRY_BYTES):
        return None  # most other files show it in their first line, before the join
    raw = ("\n" + "\n".join(entries) + "\n").encode()  # every byte has a neighbour each side
    if raw.translate(None, _ENTRY_BYTES):  # a byte left after deleting those
        return None
    codes = np.frombuffer(raw, np.uint8)
    space = codes <= ord(" ")
    edges = np.flatnonzero(space[1:] != space[:-1])
    first, last = edges[0::2] + 1, edges[1::2]  # the first and last byte of each token
    colons = np.flatnonzero(codes == ord(":"))
    # the k-th colon lies strictly inside the k-th token, so each token has one
    if (not len(first) or len(colons) != len(first)
            or not ((first < colons) & (colons < last)).all()):
        return None
    # a sign opens a number and a digit follows it, so each id and each count
    # is one span of digits with at most one sign before them
    signed = b"+" in raw or b"-" in raw
    if signed:
        signs = np.flatnonzero((codes == ord("+")) | (codes == ord("-")))
        before, after = codes[signs - 1], codes[signs + 1]
        opens = (before <= ord(" ")) | (before == ord(":"))
        if not (opens & (after >= ord("0")) & (after <= ord("9"))).all():
            return None
    digits = codes - np.uint8(ord("0"))  # a byte that is not a digit wraps past 9
    digits *= digits <= 9
    fids = _read_numbers(codes, digits, first, colons, signed)
    counts = _read_numbers(codes, digits, colons + 1, last + 1, signed)
    if fids is None or counts is None:
        return None
    lengths = np.diff(np.searchsorted(colons, np.flatnonzero(codes == ord("\n"))))
    return fids, counts.astype(np.float64), lengths


def _read_numbers(codes: np.ndarray, digits: np.ndarray, start: np.ndarray,
                  end: np.ndarray, signed: bool) -> Optional[np.ndarray]:
    """The int64 number that each span codes[start:end], an optional sign
    (only if signed) then digits, spells, summed exactly as digit x 10**place
    over its places; None if a span has more than 18 digits. digits holds
    each byte's digit value and 0 for every other byte."""
    stop = start - 1  # the byte before the first digit, whose value is 0
    if signed:
        lead = codes[start]
        stop += lead < ord("0")
    width = int((end - stop).max()) - 1  # the most digits of any span
    if width > len(_PLACES):
        return None
    at = end - 1
    values = digits[at].astype(np.int64)
    for place in _PLACES[1:width]:
        at -= 1
        np.maximum(at, stop, out=at)  # a place left of a span's first digit reads the 0 at stop
        # in int64, which numpy < 2 would not infer from the uint8 digits
        values += np.multiply(digits[at], place, dtype=np.int64)
    if signed:
        np.negative(values, out=values, where=lead == ord("-"))
    return values


def _read_lines(lines: Iterable[str], declared: Optional[int] = None, check: bool = False):
    """The labels, the text after each label and the declared vocabulary size
    of sparse-triplet lines, with or without their line ends, given the size
    that lines before them declared. A line whose first word starts with %%
    is a header, and only %%vocab names one: another header, or a vocab
    header that is not one positive integer or declares another size, raises
    DataFormatError. With check, every entry is also read on its own, and
    the first bad line raises DataFormatError."""
    labels: list[str] = []
    entries: list[str] = []
    for lineno, line in enumerate(lines, start=1):
        parts = line.split(None, 1)
        if not parts:
            continue
        if parts[0].startswith("%%"):
            if parts[0] != "%%vocab":
                raise DataFormatError(f"line {lineno}: unknown header {parts[0]!r}")
            try:
                _, text = line.split()  # the header and one size, nothing more
                size = int(text)
            except ValueError:
                size = 0
            if size <= 0:
                raise DataFormatError(f"line {lineno}: malformed vocab header")
            if declared is not None and size != declared:
                raise DataFormatError(
                    f"line {lineno}: vocab header {size} conflicts with the earlier {declared}")
            declared = size
            continue
        labels.append(parts[0])
        entries.append(parts[1].rstrip("\n") if len(parts) > 1 else "")
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
        row = np.array(sorted(pairs), dtype=[("id", np.int64), ("weight", np.float64)])
        fault = _row_fault(np.array([0, len(row)]), row["id"], row["weight"])
        if fault:
            raise DataFormatError(f"line {lineno}: {fault[1]}")
    return labels, entries, declared


def _load_dense_csv(path: Path) -> Dataset:
    raw_labels: list[str] = []
    indices: list[np.ndarray] = []
    values: list[np.ndarray] = []
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
                dense = np.fromiter(map(float, row[1:]), np.float64, count=vocab)
                if not np.isfinite(dense).all():
                    raise ValueError("non-finite value")
            except ValueError:
                raise DataFormatError(f"line {lineno}: non-numeric value") from None
            raw_labels.append(row[0])
            indices.append(np.flatnonzero(dense))  # only each row's nonzeros outlive it
            values.append(dense[indices[-1]])
    if not raw_labels:
        raise DataFormatError("no instances")
    indptr = np.cumsum([0] + [len(a) for a in indices])
    X = _csr(np.concatenate(values), np.concatenate(indices), indptr, (len(raw_labels), vocab))
    return _finish(X, raw_labels)


_MISSING_LABEL = ""


def _finish(X: sp.csr_matrix, raw_labels: list[str]) -> Dataset:
    names = sorted(set(raw_labels) - {_MISSING_LABEL})
    to_id = {name: i for i, name in enumerate(names)} | {_MISSING_LABEL: -1}
    return Dataset(X, [to_id[s] for s in raw_labels], label_names=names)


def write_label_map(d: Dataset, path: str | Path) -> None:
    """Emit the label-string -> dense-id mapping as two-column CSV."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "class_id"])
        for class_id, name in enumerate(d.label_names or []):
            writer.writerow([name, class_id])


def write_sparse_triplet(d: Dataset, path: str | Path) -> None:
    """Write a dataset in sparse-triplet format (inverse of load_dataset).

    Without label_names, class ids are written zero-padded to one width, so
    that they sort, and load back, in id order. The format has no token for a
    missing label, and a label must be one token that does not start with
    %%, as a header does, so an unlabeled instance or such a label name
    raises ValueError before the file is opened."""
    unlabeled = np.flatnonzero(d.gold_ids < 0)
    if len(unlabeled):
        raise ValueError(
            f"instance {unlabeled[0]} has no gold label, which sparse-triplet cannot write")
    top = int(d.gold_ids.max())
    names = d.label_names or [str(c).zfill(len(str(top))) for c in range(top + 1)]
    for name in names:
        if name.split() != [name] or name.startswith("%%"):
            raise ValueError(f"label name {name!r} is empty, holds whitespace or starts with "
                             "%%, which sparse-triplet cannot write")
    X = d.matrix()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"%%vocab {d.vocab_size}\n")
        for row, y in enumerate(d.gold_ids.tolist()):
            part = slice(X.indptr[row], X.indptr[row + 1])
            # an integral weight as an integer and any other as its repr, so
            # that each reads back as the same float
            entries = " ".join(
                f"{i}:{int(v) if v.is_integer() else v!r}"
                for i, v in zip(X.indices[part].tolist(), X.data[part].tolist())
            )
            fh.write(f"{names[y]} {entries}\n".rstrip() + "\n")


def tfidf_weight(d: Dataset) -> Dataset:
    """Reweight raw counts to tf * ln(N / df).

    Terms appearing in every instance get weight 0 and vanish from the
    sparsity pattern. Instances that become all-zero are dropped, and one
    warning gives their count (their removal is reported so partitions stay
    consistent).
    """
    return _tfidf_weight(d)[0]


def _tfidf_weight(d: Dataset) -> tuple[Dataset, np.ndarray]:
    """tfidf_weight(d), and the positions in d of the rows it keeps."""
    X = d.matrix()
    # np.bincount would copy the read-only ids; np.add.at reads them in place
    df = np.zeros(d.vocab_size, dtype=np.int64)
    np.add.at(df, X.indices, 1)
    idf = np.log(len(d) / np.maximum(df, 1))  # read only where df >= 1
    weights = idf[X.indices]
    weights *= X.data
    W = _csr(*_without_zeros(weights, X.indices, X.indptr), X.shape)  # d's ids if none drop
    empty = np.diff(W.indptr) == 0
    if empty.any():
        dropped = [d.instance_ids[i] for i in np.flatnonzero(empty)]
        log.warning(
            "dropping %d instance(s) all-zero after tf-idf: %s%s",
            len(dropped), ", ".join(dropped[:5]), ", ..." if len(dropped) > 5 else "",
        )
        if empty.all():
            raise DataFormatError("no instances survive tf-idf weighting")
    weighted = Dataset(W, d.gold_ids, d.instance_ids, d.label_names)
    kept = np.flatnonzero(~empty)
    return (subset(weighted, kept) if empty.any() else weighted), kept


def _row_norms(X: sp.csr_matrix, norm: Norm) -> np.ndarray:
    """The L1 or L2 norm of each row of X, bit for bit as np.sum of that row.

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
    """Every instance scaled to unit L1 or L2 norm, as one scale per row."""
    X = d.matrix()
    norms = _row_norms(X, norm)
    if not norms.all():
        raise ValueError("degenerate instance: cannot normalize all-zero vector")
    scaled = np.repeat(norms, np.diff(X.indptr))
    np.divide(X.data, scaled, out=scaled)
    # d's ids, unless a subnormal weight underflows to exactly zero
    Y = _csr(*_without_zeros(scaled, X.indices, X.indptr), X.shape)
    return Dataset(Y, d.gold_ids, d.instance_ids, d.label_names)


def subset(d: Dataset, indices: Sequence[int]) -> Dataset:
    """Dataset restricted to the given instance indices, order preserved."""
    idx = np.asarray(indices, dtype=np.int64)
    return Dataset(
        d.matrix()[idx],
        d.gold_ids[idx],
        [d.instance_ids[i] for i in idx.tolist()],
        d.label_names,
    )


def choose_seeded_classes(d: Dataset, num_seed_classes: int) -> list[int]:
    """Default seeded-class choice: the largest classes, ties to lower id."""
    counts = np.bincount(d.gold_ids[d.gold_ids >= 0])
    present = np.flatnonzero(counts)
    if num_seed_classes > len(present):
        raise ValueError(
            f"num_seed_classes={num_seed_classes} exceeds {len(present)} distinct classes"
        )
    ranked = present[np.argsort(-counts[present], kind="stable")]
    return sorted(ranked[:num_seed_classes].tolist())


def make_partitions(
    d: Dataset,
    num_seed_classes: int,
    seeds_fraction: float,
    num_partitions: int,
    rng_seed: int,
) -> list[SeedPartition]:
    """Generate deterministic seeded train/test partitions.

    Every partition seeds the same classes, the largest ones
    (choose_seeded_classes); per seeded class, ceil(seeds_fraction * class
    size) instances (minimum 1) are labeled.
    """
    if not (0.0 < seeds_fraction < 1.0):
        raise ValueError("seeds_fraction must be in (0, 1)")
    if num_partitions < 1:
        raise ValueError("num_partitions must be positive")
    seeded = choose_seeded_classes(d, num_seed_classes)
    members = [np.flatnonzero(d.gold_ids == c) for c in seeded]

    partitions = []
    for j in range(num_partitions):
        rng = np.random.default_rng(np.random.SeedSequence([rng_seed, j]))
        labeled = np.concatenate([
            rows[rng.choice(len(rows), size=max(1, math.ceil(seeds_fraction * len(rows))),
                            replace=False)]
            for rows in members
        ])
        unlabeled = np.ones(len(d), dtype=bool)
        unlabeled[labeled] = False
        partitions.append(SeedPartition(seeded, labeled, np.flatnonzero(unlabeled)))
    return partitions

"""Pluggable cluster-model families: multinomial NB, seeded K-Means with an
inner-product posterior, and hard-EM von Mises-Fisher on the unit sphere.

All three expose the same surface: class posteriors for a batch of
instances, computed from one sparse product of the dataset's CSR matrix with
the class vectors (one instance is the batch of one), initialization from
seeds, single-point new-class initialization, an M-step, a complete-data
log-likelihood under hard assignments, and a free-parameter count for
penalized model selection.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .data import Dataset, Norm, SeedPartition, SparseVector, normalize_dataset, tfidf_weight

KAPPA_MIN = 1e-2
KAPPA_MAX = 1e4
KMEANS_LL_EPS = 1e-12  # floor inside log() for the K-Means likelihood surrogate
E_STEP_CHUNK = 512  # the most pass positions whose posteriors are computed together


class ModelFamily(Enum):
    NB = "nb"
    KMEANS = "kmeans"
    VMF = "vmf"


@dataclass
class ClassParams:
    """Parameters of one class.

    vector holds log word probabilities (NB), an L1-normalized centroid
    (K-Means) or a unit mean direction (vMF). kappa is vMF-only.
    """

    family: ModelFamily
    vector: np.ndarray
    kappa: Optional[float] = None


class ModelState:
    """Full model: per-class parameters, priors, seeded flags and the current
    hard assignments (labeled entries are fixed by contract)."""

    def __init__(
        self,
        family: ModelFamily,
        vocab_size: int,
        vectors: np.ndarray,
        priors: np.ndarray,
        seeded_flags: list[bool],
        seed_class_ids: list[Optional[int]],
        assignments: np.ndarray,
        kappas: Optional[np.ndarray] = None,
    ):
        self.family = family
        self.vocab_size = int(vocab_size)
        self.vectors = vectors  # (m, V)
        self.priors = priors  # (m,)
        self.seeded_flags = seeded_flags
        self.seed_class_ids = seed_class_ids  # gold id per seeded class, None otherwise
        self.assignments = assignments  # (n,), -1 = not yet assigned
        self.kappas = kappas  # (m,), vMF only
        self._validate()

    def _validate(self):
        m = len(self.priors)
        if self.vectors.shape != (m, self.vocab_size):
            raise ValueError("parameter matrix shape mismatch")
        if len(self.seeded_flags) != m or len(self.seed_class_ids) != m:
            raise ValueError("per-class metadata length mismatch")
        if self.family is ModelFamily.VMF and (self.kappas is None or len(self.kappas) != m):
            raise ValueError("vMF state requires one kappa per class")

    @property
    def num_classes(self) -> int:
        return len(self.priors)

    @property
    def num_seeded(self) -> int:
        return sum(self.seeded_flags)

    def class_params(self, j: int) -> ClassParams:
        kappa = float(self.kappas[j]) if self.kappas is not None else None
        return ClassParams(self.family, self.vectors[j].copy(), kappa)

    def add_class(self, params: ClassParams, n_instances: int) -> int:
        """Append a freshly created (unseeded) class.

        Its prior is the add-1 smoothed share of a single member over
        n_instances data points and the grown class count; existing priors
        are rescaled so the vector still sums to 1.
        """
        if params.family is not self.family:
            raise ValueError("class params family mismatch")
        m_new = self.num_classes + 1
        if m_new == 1:
            self.priors = np.array([1.0])
        else:
            p_new = 2.0 / (n_instances + m_new)
            self.priors = np.append(self.priors * (1.0 - p_new), p_new)
        self.vectors = np.vstack([self.vectors, params.vector[None, :]])
        self.seeded_flags.append(False)
        self.seed_class_ids.append(None)
        if self.family is ModelFamily.VMF:
            self.kappas = np.append(self.kappas, params.kappa)
        return m_new - 1

    def copy(self) -> "ModelState":
        return ModelState(
            self.family,
            self.vocab_size,
            self.vectors.copy(),
            self.priors.copy(),
            list(self.seeded_flags),
            list(self.seed_class_ids),
            self.assignments.copy(),
            self.kappas.copy() if self.kappas is not None else None,
        )

    def truncate(self, m_keep: int) -> None:
        """Drop all classes with index >= m_keep (used when a grown model is
        rejected). Instances assigned to dropped classes must be reassigned
        by the caller."""
        if m_keep < self.num_seeded:
            raise ValueError("cannot truncate below the seeded classes")
        self.vectors = self.vectors[:m_keep]
        self.priors = self.priors[:m_keep] / self.priors[:m_keep].sum()
        self.seeded_flags = self.seeded_flags[:m_keep]
        self.seed_class_ids = self.seed_class_ids[:m_keep]
        if self.kappas is not None:
            self.kappas = self.kappas[:m_keep]

    # -- snapshot serialization (inspection and test fixtures) --

    def to_snapshot(self) -> dict:
        snap = {
            "family": self.family.value,
            "vocab_size": self.vocab_size,
            "priors": self.priors.tolist(),
            "seeded_flags": list(self.seeded_flags),
            "seed_class_ids": list(self.seed_class_ids),
            "assignments": self.assignments.tolist(),
            "vectors": [
                {"idx": np.nonzero(row)[0].tolist(), "val": row[np.nonzero(row)[0]].tolist()}
                for row in self.vectors
            ],
        }
        if self.kappas is not None:
            snap["kappas"] = self.kappas.tolist()
        return snap

    def to_json(self) -> str:
        return json.dumps(self.to_snapshot(), sort_keys=True)

    @classmethod
    def from_snapshot(cls, snap: dict) -> "ModelState":
        m = len(snap["priors"])
        vocab = snap["vocab_size"]
        vectors = np.zeros((m, vocab))
        for j, row in enumerate(snap["vectors"]):
            vectors[j, row["idx"]] = row["val"]
        return cls(
            ModelFamily(snap["family"]),
            vocab,
            vectors,
            np.asarray(snap["priors"], dtype=np.float64),
            list(snap["seeded_flags"]),
            list(snap["seed_class_ids"]),
            np.asarray(snap["assignments"], dtype=np.int64),
            np.asarray(snap["kappas"], dtype=np.float64) if "kappas" in snap else None,
        )

    @classmethod
    def from_json(cls, text: str) -> "ModelState":
        return cls.from_snapshot(json.loads(text))


def _vmf_log_normalizer(kappa: np.ndarray, dim: int) -> np.ndarray:
    """Large-kappa asymptotic of the vMF log normalizing constant."""
    return (dim / 2.0 - 1.0) * np.log(kappa) - kappa - (dim / 2.0) * math.log(2.0 * math.pi)


def _banerjee_kappa(rbar: float, dim: int) -> float:
    """Concentration estimate kappa = (rbar*d - rbar^3) / (1 - rbar^2),
    clamped to [KAPPA_MIN, KAPPA_MAX]."""
    if rbar >= 1.0 - 1e-12:
        return KAPPA_MAX
    if rbar <= 0.0:
        return KAPPA_MIN
    kappa = (rbar * dim - rbar**3) / (1.0 - rbar**2)
    return float(min(max(kappa, KAPPA_MIN), KAPPA_MAX))


def posteriors(state: ModelState, scores: np.ndarray) -> np.ndarray:
    """P(C_j | x_i) over all live classes, one row per instance; each row is
    non-negative and sums to 1.

    scores[i, j] is the inner product x_i . vectors[j], as PassScores computes
    it. A K-Means row whose scores are all non-positive is uniform."""
    m = state.num_classes
    if m == 0:
        raise ValueError("model has no classes")
    if state.family is ModelFamily.NB:
        logits = np.log(state.priors) + scores
    elif state.family is ModelFamily.KMEANS:
        p = state.priors * np.maximum(scores, 0.0)
        total = p.sum(axis=1, keepdims=True)
        fallback = total[:, 0] <= 0.0
        p[fallback] = 1.0
        total[fallback] = m
        return p / total
    else:
        logits = np.log(state.priors) + state.kappas * scores
    logits -= logits.max(axis=1, keepdims=True)
    p = np.exp(logits)
    return p / p.sum(axis=1, keepdims=True)


def posterior(state: ModelState, x: SparseVector) -> np.ndarray:
    """P(C_j | x) over all live classes for one instance: the one-row case of
    posteriors()."""
    row = sp.csr_matrix(
        (x.values, x.indices, [0, x.nnz]), shape=(1, state.vocab_size)
    )
    return posteriors(state, row @ state.vectors.T)[0]


class PassScores:
    """Posteriors of the rows `rows` of a dataset, in pass order, for one
    E-step pass, handed out a chunk at a time.

    The scores of the classes that exist when the pass starts come from one
    sparse product over the dataset's cached CSR matrix. The pass is worked
    in windows of at most E_STEP_CHUNK positions, and each window takes its
    rows of that product. A class opened during the pass is scored on the
    window's rows of the matrix, copied when the first class opens in the
    window, and on every later window. Every score is the same sequential
    dot product over a row's stored entries, so a row's posterior does not
    depend on how the pass is split.

    A class opened at one position makes the posteriors of the rest of its
    chunk stale. So a chunk ends with its window and is at most twice as
    long as the distance from its start back to the last opening: a pass
    that opens a class every few rows computes each posterior a few times at
    most, and a pass that rarely opens one soon returns to whole windows.
    """

    SPARE_COLUMNS = 64  # room for classes opened while a window is held

    def __init__(self, state: ModelState, d: Dataset, rows: np.ndarray):
        self._X = d.matrix()
        self._rows = rows
        self._base = self._X @ state.vectors.T  # (len(d), classes at the start)
        self._opened_at = -E_STEP_CHUNK
        self._window = (0, 0)  # the pass positions that _scores holds
        self._scores = self._base[:0]  # (window rows, >= live classes)
        self._window_X = None  # the window's rows of X, once a class opens

    def _load(self, state: ModelState, start: int) -> None:
        stop = min(len(self._rows), start + E_STEP_CHUNK)
        m0, m = self._base.shape[1], state.num_classes
        self._window = (start, stop)
        self._window_X = None
        self._scores = np.empty((stop - start, m + self.SPARE_COLUMNS))
        self._scores[:, :m0] = self._base[self._rows[start:stop]]
        if m > m0:
            self._scores[:, m0:m] = self._rows_of_window() @ state.vectors[m0:].T

    def _rows_of_window(self) -> sp.csr_matrix:
        if self._window_X is None:
            start, stop = self._window
            self._window_X = self._X[self._rows[start:stop]]
        return self._window_X

    def add_class(self, state: ModelState, pos: int) -> None:
        """Score from now on the class appended to state last, which the row
        at pass position pos (in the last chunk handed out) opened."""
        self._opened_at = pos
        m = state.num_classes
        if m > self._scores.shape[1]:
            wider = np.empty((len(self._scores), m + self.SPARE_COLUMNS))
            wider[:, : m - 1] = self._scores[:, : m - 1]
            self._scores = wider
        self._scores[:, m - 1] = self._rows_of_window() @ state.vectors[-1]

    def posteriors(self, state: ModelState, start: int) -> np.ndarray:
        """posteriors() of the chunk of pass positions that begins at start."""
        w_start, w_stop = self._window
        if not w_start <= start < w_stop:
            self._load(state, start)
            w_start, w_stop = self._window
        stop = min(w_stop, start + 2 * (start - self._opened_at))
        return posteriors(
            state, self._scores[start - w_start : stop - w_start, : state.num_classes]
        )


def init_from_seeds(
    d: Dataset,
    p: SeedPartition,
    family: ModelFamily,
    kappa_init: float = 1.0,
) -> ModelState:
    """Supervised initialization: one class per seeded gold class, parameters
    estimated from its labeled instances, priors add-1 smoothed on seed
    counts. Unlabeled instances start unassigned (-1)."""
    seeded = sorted(p.seeded_class_ids)
    if not seeded:
        # fully unsupervised start: zero classes, everything unassigned
        return ModelState(
            family,
            d.vocab_size,
            np.zeros((0, d.vocab_size)),
            np.zeros(0),
            [],
            [],
            np.full(len(d), -1, dtype=np.int64),
            np.zeros(0) if family is ModelFamily.VMF else None,
        )
    members: dict[int, list[int]] = {c: [] for c in seeded}
    for i in sorted(p.labeled_idx):
        members[d.gold_labels[i]].append(i)
    for c in seeded:
        if not members[c]:
            raise ValueError(f"seeded class {c} has no labeled instances")

    k = len(seeded)
    V = d.vocab_size
    X = d.matrix()
    vectors = np.zeros((k, V))
    kappas = np.zeros(k) if family is ModelFamily.VMF else None
    counts = np.zeros(k)
    for j, c in enumerate(seeded):
        rows = members[c]
        counts[j] = len(rows)
        s = np.asarray(X[rows].sum(axis=0)).ravel()
        if family is ModelFamily.NB:
            smoothed = s + 1.0
            vectors[j] = np.log(smoothed / smoothed.sum())
        elif family is ModelFamily.KMEANS:
            total = np.abs(s).sum()
            if total == 0.0:
                raise ValueError(f"seeded class {c}: degenerate all-zero seed mean")
            vectors[j] = s / total
        else:
            r = float(np.linalg.norm(s))
            if r <= 1e-12:
                raise ValueError(f"seeded class {c}: seed directions cancel (mean resultant 0)")
            vectors[j] = s / r
            kappas[j] = _banerjee_kappa(r / len(rows), V)

    priors = (counts + 1.0) / (counts.sum() + k)
    assignments = np.full(len(d), -1, dtype=np.int64)
    class_index = {c: j for j, c in enumerate(seeded)}
    for i in p.labeled_idx:
        assignments[i] = class_index[d.gold_labels[i]]
    return ModelState(
        family,
        V,
        vectors,
        priors,
        [True] * k,
        [c for c in seeded],
        assignments,
        kappas,
    )


def init_new_class(
    x: SparseVector,
    family: ModelFamily,
    vocab_size: int,
    kappa_init: float = 1.0,
) -> ClassParams:
    """Parameters for a brand-new class seeded by a single instance."""
    if x.nnz == 0:
        raise ValueError("cannot initialize a class from an all-zero instance")
    dense = x.to_dense(vocab_size)
    if family is ModelFamily.NB:
        smoothed = dense + 1.0
        return ClassParams(family, np.log(smoothed / smoothed.sum()))
    if family is ModelFamily.KMEANS:
        smoothed = dense + 1.0 / vocab_size
        return ClassParams(family, smoothed / smoothed.sum())
    mu = dense / np.linalg.norm(dense)
    return ClassParams(family, mu, kappa=float(kappa_init))


def m_step(state: ModelState, d: Dataset) -> ModelState:
    """Re-estimate all parameters from the current hard assignments.

    Introduced classes left without members are dropped (assignment ids are
    remapped); seeded classes always survive. Priors use add-1 smoothing."""
    y = state.assignments
    if np.any(y < 0):
        raise ValueError("all instances must be assigned before the M-step")
    m = state.num_classes
    counts = np.bincount(y, minlength=m).astype(np.float64)

    keep = [j for j in range(m) if state.seeded_flags[j] or counts[j] > 0]
    remap = np.full(m, -1, dtype=np.int64)
    for new_j, old_j in enumerate(keep):
        remap[old_j] = new_j
    y_new = remap[y]
    m_new = len(keep)
    counts = counts[keep]

    n = len(d)
    V = d.vocab_size
    X = d.matrix()
    # class-membership indicator (m_new x n) for grouped sums
    A = sp.csr_matrix(
        (np.ones(n), (y_new, np.arange(n))), shape=(m_new, n)
    )
    sums = np.asarray((A @ X).todense())  # (m_new, V)

    vectors = np.zeros((m_new, V))
    kappas = np.zeros(m_new) if state.family is ModelFamily.VMF else None
    for j in range(m_new):
        s = sums[j]
        if state.family is ModelFamily.NB:
            smoothed = s + 1.0
            vectors[j] = np.log(smoothed / smoothed.sum())
        elif state.family is ModelFamily.KMEANS:
            total = np.abs(s).sum()
            if total > 0.0:
                vectors[j] = s / total
            else:
                vectors[j] = state.vectors[keep[j]]  # empty seeded class: keep params
        else:
            r = float(np.linalg.norm(s))
            if r > 1e-12:
                vectors[j] = s / r
                kappas[j] = _banerjee_kappa(r / max(counts[j], 1.0), V)
            else:
                vectors[j] = state.vectors[keep[j]]
                kappas[j] = KAPPA_MIN

    priors = (counts + 1.0) / (counts.sum() + m_new)
    return ModelState(
        state.family,
        V,
        vectors,
        priors,
        [state.seeded_flags[j] for j in keep],
        [state.seed_class_ids[j] for j in keep],
        y_new,
        kappas,
    )


def data_log_likelihood(state: ModelState, d: Dataset) -> float:
    """Complete-data log-likelihood sum_i log[P(C_{y_i}) P(x_i | C_{y_i})]
    under the current hard assignments.

    K-Means uses the documented surrogate log[P(C_j)(x . c_j + eps)]; it is a
    scoring surrogate, not a probability. vMF uses the asymptotic log
    normalizer shared across classes."""
    y = state.assignments
    if np.any(y < 0):
        raise ValueError("all instances must be assigned")
    X = d.matrix()
    m = state.num_classes
    n = len(d)
    log_priors = np.log(state.priors)
    if state.family is ModelFamily.NB:
        # per-instance dot with its own class's log word probs
        per_class = X @ state.vectors.T  # (n, m)
        ll = log_priors[y].sum() + per_class[np.arange(n), y].sum()
        return float(ll)
    if state.family is ModelFamily.KMEANS:
        sims = X @ state.vectors.T
        own = sims[np.arange(n), y]
        return float(np.sum(log_priors[y] + np.log(np.maximum(own, 0.0) + KMEANS_LL_EPS)))
    dots = X @ state.vectors.T
    own = dots[np.arange(n), y]
    logc = _vmf_log_normalizer(state.kappas, d.vocab_size)
    return float(np.sum(log_priors[y] + state.kappas[y] * own + logc[y]))


def free_parameter_count(state: ModelState) -> int:
    """Free parameters v for penalized model selection: m(V-1) multinomial or
    direction terms plus m-1 prior terms, plus m concentrations for vMF."""
    m = state.num_classes
    V = state.vocab_size
    base = m * (V - 1) + (m - 1)
    if state.family is ModelFamily.VMF:
        return base + m
    return base


def prepare_dataset(d: Dataset, family: ModelFamily, apply_tfidf: bool = True) -> Dataset:
    """Per-family representation: raw counts for NB, L1-normalized TF-IDF for
    K-Means, L2-normalized TF-IDF for vMF."""
    if family is ModelFamily.NB:
        return d
    weighted = tfidf_weight(d) if apply_tfidf else d
    norm = Norm.L1 if family is ModelFamily.KMEANS else Norm.L2
    return normalize_dataset(weighted, norm)

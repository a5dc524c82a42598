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

import math
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


class ModelState:
    """Full model: per-class parameters, priors, the gold ids of the seeded
    classes and the current hard assignments (labeled entries are fixed by
    contract).

    A class's vector holds log word probabilities (NB), an L1-normalized
    centroid (K-Means) or a unit mean direction (vMF); kappas are vMF-only.
    The seeded classes come first: class j < len(seed_class_ids) is seeded
    with gold class seed_class_ids[j], and every later class was opened by
    add_class."""

    def __init__(
        self,
        family: ModelFamily,
        vocab_size: int,
        vectors: np.ndarray,
        priors: np.ndarray,
        seed_class_ids: list[int],
        assignments: np.ndarray,
        kappas: Optional[np.ndarray] = None,
    ):
        self.family = family
        self.vocab_size = int(vocab_size)
        self.vectors = vectors  # (m, V)
        self.priors = priors  # (m,)
        self.seed_class_ids = seed_class_ids
        self.assignments = assignments  # (n,), -1 = not yet assigned
        self.kappas = kappas  # (m,), vMF only
        self._rows = None  # room add_class grows into: vectors is its first m rows
        self._validate()

    def _validate(self):
        m = len(self.priors)
        if self.vectors.shape != (m, self.vocab_size):
            raise ValueError("parameter matrix shape mismatch")
        if len(self.seed_class_ids) > m:
            raise ValueError("more seeded classes than classes")
        if self.family is ModelFamily.VMF and (self.kappas is None or len(self.kappas) != m):
            raise ValueError("vMF state requires one kappa per class")

    @property
    def num_classes(self) -> int:
        return len(self.priors)

    @property
    def num_seeded(self) -> int:
        return len(self.seed_class_ids)

    def add_class(self, params: tuple[np.ndarray, Optional[float]], n_instances: int) -> int:
        """Append a freshly created (unseeded) class with the (vector, kappa)
        that init_new_class gives.

        Its prior is the add-1 smoothed share of a single member over
        n_instances data points and the grown class count; existing priors
        are rescaled so the vector still sums to 1.
        """
        vector, kappa = params
        m = self.num_classes
        if m == 0:
            self.priors = np.array([1.0])
        else:
            p_new = 2.0 / (n_instances + m + 1)
            self.priors = np.append(self.priors * (1.0 - p_new), p_new)
        rows = self._rows
        if rows is None or len(rows) == m or self.vectors.base is not rows:
            # double the room, so that c openings copy O(c) rows in all
            rows = np.empty((2 * (m + 1), self.vocab_size))
            rows[:m] = self.vectors
            self._rows = rows
        rows[m] = vector
        self.vectors = rows[: m + 1]
        if self.family is ModelFamily.VMF:
            self.kappas = np.append(self.kappas, kappa)
        return m

    def truncate(self, m_keep: int) -> None:
        """Drop all classes with index >= m_keep (used when a grown model is
        rejected). Instances assigned to dropped classes must be reassigned
        by the caller."""
        if m_keep < self.num_seeded:
            raise ValueError("cannot truncate below the seeded classes")
        self.vectors = self.vectors[:m_keep]
        self._rows = None  # never write over rows an earlier vectors showed
        self.priors = self.priors[:m_keep] / self.priors[:m_keep].sum()
        if self.kappas is not None:
            self.kappas = self.kappas[:m_keep]


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
    it. A K-Means row whose scores are all non-positive is uniform. The vMF
    logits leave out the per-class log normalizer log c_d(kappa_j) that
    data_log_likelihood includes, so the two describe different models
    whenever the kappas differ (ROADMAP item 2)."""
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

    The scores of the classes that exist when the pass starts are `base`,
    the product X @ vectors.T over every row of the dataset's CSR matrix. A
    driver computes it once per parameter update and shares it between the
    passes and likelihoods that see those parameters. The pass is worked
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

    def __init__(self, state: ModelState, d: Dataset, rows: np.ndarray, base: np.ndarray):
        if base.shape != (len(d), state.num_classes):
            raise ValueError("base scores must cover every row and live class")
        self._X = d.matrix()
        self._rows = rows
        self._base = base
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


def class_sums(X: sp.csr_matrix, y: np.ndarray, m: int) -> np.ndarray:
    """(m, V) sums of the rows of X per class label y[row], all y in [0, m).

    bincount adds the weights in entry order, so each (class, word) sum adds
    its rows in row order, as the product of a class-indicator matrix with X
    and X[rows].sum(axis=0) do."""
    V = X.shape[1]
    row_class = np.repeat(y, np.diff(X.indptr))
    return np.bincount(row_class * V + X.indices, weights=X.data, minlength=m * V).reshape(m, V)


def _fit_class(
    family: ModelFamily, s: np.ndarray, count: float, V: int
) -> Optional[tuple[np.ndarray, Optional[float]]]:
    """(vector, kappa) of a class whose members' rows sum to s, kappa None
    outside vMF; None when s is degenerate (K-Means all-zero sum, vMF mean
    resultant 0)."""
    if family is ModelFamily.NB:
        smoothed = s + 1.0
        return np.log(smoothed / smoothed.sum()), None
    if family is ModelFamily.KMEANS:
        total = np.abs(s).sum()
        return (s / total, None) if total > 0.0 else None
    r = float(np.linalg.norm(s))
    return (s / r, _banerjee_kappa(r / max(count, 1.0), V)) if r > 1e-12 else None


def init_from_seeds(d: Dataset, p: SeedPartition, family: ModelFamily) -> ModelState:
    """Supervised initialization: one class per seeded gold class, parameters
    estimated from its labeled instances, priors add-1 smoothed on seed
    counts. Unlabeled instances start unassigned (-1)."""
    seeded = sorted(p.seeded_class_ids)  # none: a fully unsupervised start
    k = len(seeded)
    V = d.vocab_size
    class_index = {c: j for j, c in enumerate(seeded)}
    labeled = np.array(sorted(p.labeled_idx), dtype=np.int64)
    y = np.array([class_index[d.gold_labels[i]] for i in labeled], dtype=np.int64)
    counts = np.bincount(y, minlength=k).astype(np.float64)
    if not counts.all():
        raise ValueError(f"seeded class {seeded[np.argmin(counts)]} has no labeled instances")

    sums = class_sums(d.matrix()[labeled], y, k)
    vectors = np.zeros((k, V))
    kappas = np.zeros(k) if family is ModelFamily.VMF else None
    for j, c in enumerate(seeded):
        fit = _fit_class(family, sums[j], int(counts[j]), V)
        if fit is None:
            why = ("degenerate all-zero seed mean" if family is ModelFamily.KMEANS
                   else "seed directions cancel (mean resultant 0)")
            raise ValueError(f"seeded class {c}: {why}")
        vectors[j], kappa = fit
        if kappas is not None:
            kappas[j] = kappa

    priors = (counts + 1.0) / (counts.sum() + k)
    assignments = np.full(len(d), -1, dtype=np.int64)
    assignments[labeled] = y
    return ModelState(family, V, vectors, priors, seeded, assignments, kappas)


def init_new_class(
    x: SparseVector,
    family: ModelFamily,
    vocab_size: int,
    kappa_init: float = 1.0,
) -> tuple[np.ndarray, Optional[float]]:
    """(vector, kappa) of a brand-new class seeded by a single instance,
    kappa None outside vMF."""
    if x.nnz == 0:
        raise ValueError("cannot initialize a class from an all-zero instance")
    dense = x.to_dense(vocab_size)
    if family is ModelFamily.NB:
        smoothed = dense + 1.0
        return np.log(smoothed / smoothed.sum()), None
    if family is ModelFamily.KMEANS:
        smoothed = dense + 1.0 / vocab_size
        return smoothed / smoothed.sum(), None
    return dense / np.linalg.norm(dense), float(kappa_init)


def m_step(state: ModelState, d: Dataset) -> ModelState:
    """Re-estimate all parameters from the current hard assignments.

    Introduced classes left without members are dropped (assignment ids are
    remapped); seeded classes always survive. Priors use add-1 smoothing."""
    y = state.assignments
    if np.any(y < 0):
        raise ValueError("all instances must be assigned before the M-step")
    m = state.num_classes
    counts = np.bincount(y, minlength=m).astype(np.float64)

    keep = np.flatnonzero((np.arange(m) < state.num_seeded) | (counts > 0))
    remap = np.full(m, -1, dtype=np.int64)
    remap[keep] = np.arange(len(keep))
    y_new = remap[y]
    m_new = len(keep)
    counts = counts[keep]

    V = d.vocab_size
    sums = class_sums(d.matrix(), y_new, m_new)
    vectors = np.zeros((m_new, V))
    kappas = np.zeros(m_new) if state.family is ModelFamily.VMF else None
    for j, old_j in enumerate(keep):
        # a degenerate sum (an empty seeded class) keeps its parameters
        fit = _fit_class(state.family, sums[j], counts[j], V)
        vectors[j], kappa = fit or (state.vectors[old_j], KAPPA_MIN)
        if kappas is not None:
            kappas[j] = kappa

    priors = (counts + 1.0) / (counts.sum() + m_new)
    return ModelState(state.family, V, vectors, priors, state.seed_class_ids, y_new, kappas)


def data_log_likelihood(
    state: ModelState, d: Dataset, scores: Optional[np.ndarray] = None
) -> float:
    """Complete-data log-likelihood sum_i log[P(C_{y_i}) P(x_i | C_{y_i})]
    under the current hard assignments.

    scores, if given, is X @ vectors.T for the first scores.shape[1] classes,
    as a driver computed it after its last parameter update; the rows
    assigned to a class opened since then are scored here. Without it the
    whole product is computed.

    K-Means uses the documented surrogate log[P(C_j)(x . c_j + eps)]; it is a
    scoring surrogate, not a probability. vMF uses the asymptotic log
    normalizer of each row's own class, log c_d(kappa_{y_i})."""
    y = state.assignments
    if np.any(y < 0):
        raise ValueError("all instances must be assigned")
    X = d.matrix()
    if scores is None:
        scores = X @ state.vectors.T  # (n, m)
    m0 = scores.shape[1]
    if scores.shape[0] != len(d) or m0 > state.num_classes:
        raise ValueError("scores must cover every row and no more than the live classes")
    own = np.zeros(len(d))  # each row's dot with its own class's vector
    early = y < m0
    own[early] = scores[early, y[early]]
    late = np.flatnonzero(~early)
    if len(late):
        own[late] = (X[late] @ state.vectors[m0:].T)[np.arange(len(late)), y[late] - m0]
    log_priors = np.log(state.priors)
    if state.family is ModelFamily.NB:
        return float(log_priors[y].sum() + own.sum())
    if state.family is ModelFamily.KMEANS:
        return float(np.sum(log_priors[y] + np.log(np.maximum(own, 0.0) + KMEANS_LL_EPS)))
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

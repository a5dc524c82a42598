"""Pluggable cluster-model families: multinomial NB, seeded K-Means with an
inner-product posterior, and hard-EM von Mises-Fisher on the unit sphere.

All three expose the same surface: class logits and posteriors for a batch
of instances, computed from rows of the product of the dataset's CSR matrix
with the class vectors that the model state keeps (one instance is the batch
of one), initialization from seeds, single-point new-class initialization, an
M-step, a complete-data log-likelihood under hard assignments, and a
free-parameter count for penalized model selection.
"""

from __future__ import annotations

import copy
import math
from enum import Enum
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .data import Dataset, SeedPartition

KAPPA_MIN = 1e-2
KAPPA_MAX = 1e4
KAPPA_NEW = 1.0  # the concentration of a class opened from one instance
KMEANS_LL_EPS = 1e-12  # floor inside log() for the K-Means likelihood surrogate
CLASS_SUM_ENTRIES = 1 << 15  # about the entries class_sums adds in one np.add.at
PAIRWISE_BLOCK = 128  # the longest row numpy's pairwise sum adds without halving


class ModelFamily(Enum):
    NB = "nb"
    KMEANS = "kmeans"
    VMF = "vmf"


class ModelState:
    """Full model of one dataset, whose CSR matrix is X: per-class
    parameters, priors, the gold ids of the seeded classes, the current hard
    assignments of X's rows (labeled entries are fixed by contract) and
    scores = X @ vectors.T.

    A class's vector holds log word probabilities (NB), an L1-normalized
    centroid (K-Means) or a unit mean direction (vMF); kappas are vMF-only.
    The seeded classes come first: class j < len(seed_class_ids) is seeded
    with gold class seed_class_ids[j], and every later class was opened by
    add_class. scores is computed here and kept current by add_class and
    truncate, so each E-step pass and likelihood until the next M-step reads
    this one matrix; m_step drops it. kept_old_vector is True on a state
    whose refit kept an old vector for a class it could not fit; a refit
    that kept none is a function of the family, X, the assignments and the
    seeded classes alone."""

    def __init__(
        self,
        family: ModelFamily,
        X: sp.csr_matrix,
        vectors: np.ndarray,
        priors: np.ndarray,
        seed_class_ids: list[int],
        assignments: np.ndarray,
        kappas: Optional[np.ndarray] = None,
    ):
        self.family = family
        self.X = X  # (n, V)
        self._stacked = vectors  # (m0, V): the first m0 classes' vectors
        self._opened: list[np.ndarray] = []  # those of the classes after them (vectors)
        self.priors = priors  # (m,)
        self.seed_class_ids = seed_class_ids
        self.assignments = assignments  # (n,), -1 = not yet assigned
        self.kappas = kappas  # (m,), vMF only
        self._validate()
        self.scores = X @ vectors.T  # (n, m)
        self._room = 0  # scores is the first m columns of _columns, which has room for _room
        self.kept_old_vector = False

    def _validate(self):
        m = len(self.priors)
        if self.vectors.shape != (m, self.X.shape[1]):
            raise ValueError("parameter matrix shape mismatch")
        if len(self.assignments) != self.X.shape[0]:
            raise ValueError("assignments must cover every row of X")
        if len(self.seed_class_ids) > m:
            raise ValueError("more seeded classes than classes")
        if self.family is ModelFamily.VMF and (self.kappas is None or len(self.kappas) != m):
            raise ValueError("vMF state requires one kappa per class")

    @property
    def vectors(self) -> np.ndarray:
        """The (m, V) class vectors, stacked on the first read after
        add_class has opened a class."""
        if self._opened:
            self._stacked = np.vstack([self._stacked, *self._opened])
            self._opened = []
        return self._stacked

    @property
    def num_classes(self) -> int:
        return len(self.priors)

    @property
    def num_seeded(self) -> int:
        return len(self.seed_class_ids)

    def add_class(self, params: tuple[np.ndarray, Optional[float]]) -> int:
        """Append a freshly created (unseeded) class with the (vector, kappa)
        that init_new_class gives, and its column X @ vector of scores: the
        same sequential dot product over each row's stored entries as the
        whole product takes. The state keeps the vector itself, uncopied, so
        it must not be written to afterwards; vectors stacks it on read.

        Its prior is the add-1 smoothed share of a single member over the
        rows of X and the grown class count; existing priors are rescaled so
        the vector still sums to 1.
        """
        vector, kappa = params
        n, m = self.scores.shape
        if m == 0:
            self.priors = np.array([1.0])
        else:
            p_new = 2.0 / (n + m + 1)
            self.priors = np.append(self.priors * (1.0 - p_new), p_new)
        if m >= self._room:
            # double the room, so that c openings copy O(c) columns in all
            self._room = 2 * (m + 1)
            self._columns = np.empty((n, self._room))
            self._columns[:, :m] = self.scores
        self._columns[:, m] = self.X @ vector
        self.scores = self._columns[:, : m + 1]
        self._opened.append(vector)
        if self.family is ModelFamily.VMF:
            self.kappas = np.append(self.kappas, kappa)
        return m

    def fork(self) -> "ModelState":
        """A state that shares this one's parameters and scores but has its
        own assignments and no spare room, so that add_class, truncate and
        m_step on it never write an array this one holds."""
        other = copy.copy(self)
        other.assignments = self.assignments.copy()
        other._opened = list(self._opened)
        other._room = 0
        return other

    def truncate(self, m_keep: int) -> None:
        """Drop all classes with index >= m_keep (used when a grown model is
        rejected). Instances assigned to dropped classes must be reassigned
        by the caller."""
        if m_keep < self.num_seeded:
            raise ValueError("cannot truncate below the seeded classes")
        kept_opened = m_keep - len(self._stacked)
        if kept_opened >= 0:
            self._opened = self._opened[:kept_opened]
        else:
            self._stacked, self._opened = self._stacked[:m_keep], []
        self.scores = self.scores[:, :m_keep]
        self._room = 0  # never write over what an earlier scores showed
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


def sum_classes(a: np.ndarray) -> np.ndarray:
    """The sum over the classes of an (m, r) class-major array, one per
    column: bit for bit np.ascontiguousarray(a.T).sum(axis=1), numpy's sum
    of each column laid out as a row.

    numpy adds a contiguous row of fewer than 8 entries one entry after
    another, starting from 0, and so does a sum down axis 0, as m
    vectorised passes over the columns. A longer row is added pairwise
    (_pairwise_rows), which takes about m/8 + 10 vectorised passes; a chunk
    with fewer columns than classes is summed over its transposed copy
    instead, one row sum per column, the fewer calls."""
    m, r = a.shape
    if m < 8:
        return a.sum(axis=0)
    if r >= m:
        return _pairwise_rows(a)
    return np.ascontiguousarray(a.T).sum(axis=1)


def _pairwise_rows(a: np.ndarray) -> np.ndarray:
    """numpy's pairwise sum of each column of an (n, r) array, n >= 8, in
    the order its C loop adds a row of n entries: above PAIRWISE_BLOCK
    entries the two halves (the first a multiple of 8) are summed apart and
    added; up to it, 8 accumulators take every eighth entry, are combined
    as ((0+1) + (2+3)) + ((4+5) + (6+7)), and the n % 8 left are added one
    after another. Each accumulator starts from 0 here, where numpy starts
    it from its first entry and adds the whole sum to 0; both give the same
    bits, since only the sign of a zero could differ and no sum started
    from 0 is -0."""
    n = a.shape[0]
    if n > PAIRWISE_BLOCK:
        half = n // 2 - n // 2 % 8
        return _pairwise_rows(a[:half]) + _pairwise_rows(a[half:])
    end = n - n % 8
    acc = a[:end].reshape(end // 8, 8, a.shape[1]).sum(axis=0)  # sequential down axis 0
    acc = acc[0::2] + acc[1::2]
    acc = acc[0::2] + acc[1::2]
    total = acc[0] + acc[1]
    for row in a[end:]:
        total += row
    return total


def class_major(scores: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """A copy of the rows `rows` of an (n, m) score matrix as an (m, r)
    class-major array, laid out so that a reduction down its classes runs
    numpy's inner loop the fewer times: C-contiguous, one loop per class,
    when it has at least as many rows as classes, else the transpose of a
    C-contiguous (r, m) copy, one loop per row. numpy loops over an array
    in memory order, so every reduction over axis 0 of the result, and each
    elementwise step on it, takes the cheaper order by itself."""
    chunk = scores[rows]
    return np.ascontiguousarray(chunk.T) if len(rows) >= scores.shape[1] else chunk.T


def logits(state: ModelState, scores: np.ndarray) -> np.ndarray:
    """The class logits of each column of scores, a new (m, r) array: log
    prior + s (NB), log prior + kappa * s (vMF), or prior * max(s, 0)
    (K-Means, whose posterior is this column normalised rather than its
    softmax). scores is class-major, as posteriors() takes it, in any
    memory layout.

    The argmax of a column is its MAP class: it equals the argmax of the
    column's posteriors, except where rounding in the normalisation makes
    two posteriors equal that the logits tell apart. A K-Means column whose
    scores are all non-positive is all zero, so its argmax is class 0, as
    the uniform fallback's is."""
    if state.num_classes == 0:
        raise ValueError("model has no classes")
    if state.family is ModelFamily.KMEANS:
        return state.priors[:, None] * np.maximum(scores, 0.0)
    if state.family is ModelFamily.NB:
        return np.log(state.priors)[:, None] + scores
    return np.log(state.priors)[:, None] + state.kappas[:, None] * scores


def posteriors(state: ModelState, scores: np.ndarray) -> np.ndarray:
    """P(C_j | x_i) over all live classes, class-major: an (m, r) array
    with one column per instance, each non-negative and summing to 1.

    scores[j, i] is the inner product x_i . vectors[j], one row per live
    class: columns of ModelState.scores, best laid out by class_major. A
    K-Means column whose scores are all non-positive is uniform. The vMF
    logits leave out the per-class log normalizer log c_d(kappa_j) that
    data_log_likelihood includes, so the two describe different models
    whenever the kappas differ (ROADMAP item 3). Each column's largest
    logit is subtracted before exp; max is exact in any order, and the
    normalisers are added by sum_classes, so each column equals the
    posterior of its instance alone bit for bit."""
    z = logits(state, scores)
    if state.family is ModelFamily.KMEANS:
        total = sum_classes(z)
        fallback = total <= 0.0
        z[:, fallback] = 1.0
        total[fallback] = state.num_classes
    else:
        z -= np.maximum.reduce(z, axis=0)
        np.exp(z, out=z)
        total = sum_classes(z)
    z /= total
    return z


def posterior(state: ModelState, x: sp.csr_matrix) -> np.ndarray:
    """P(C_j | x) over all live classes for one instance, a 1 x vocab_size
    CSR matrix such as Dataset.row gives: the one-column case of
    posteriors()."""
    return posteriors(state, (x @ state.vectors.T).T)[:, 0]


def class_sums(
    X: sp.csr_matrix, y: np.ndarray, m: int, rows: Optional[np.ndarray] = None
) -> np.ndarray:
    """(m, V) sums of the rows of X per class label, all labels in [0, m):
    row i of X has label y[i], or, given rows, row rows[k] has label y[k].

    np.add.at adds the weights in entry order, so each (class, word) sum adds
    its rows in the order given, as the product of a class-indicator matrix
    with X[rows] and X[rows].sum(axis=0) do. It reads X's read-only arrays in
    place, without the copy X[rows] makes, and the flat (class, word)
    indices are formed a block of rows at a time, so that no temporary grows
    with the number of entries."""
    V = X.shape[1]
    sums = np.zeros(m * V)
    first = X.indptr[:-1] if rows is None else X.indptr[rows]
    lengths = (X.indptr[1:] if rows is None else X.indptr[rows + 1]) - first
    # rows of that many entries
    block = max(1, CLASS_SUM_ENTRIES * len(y) // max(int(lengths.sum()), 1))
    for a in range(0, len(y), block):
        b = min(a + block, len(y))
        if rows is None:
            entries = slice(X.indptr[a], X.indptr[b])
        else:
            # each row's entries, from its first on: the entry's place in the
            # block less its row's, plus the row's first entry in X
            ends = np.cumsum(lengths[a:b])
            entries = np.arange(ends[-1]) + np.repeat(first[a:b] - ends + lengths[a:b],
                                                       lengths[a:b])
        idx = np.repeat(y[a:b] * V, lengths[a:b])
        idx += X.indices[entries]
        np.add.at(sums, idx, X.data[entries])
    return sums.reshape(m, V)


def fit_classes(
    family: ModelFamily, X: sp.csr_matrix, y: np.ndarray, m: int,
    rows: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, Optional[np.ndarray], np.ndarray, np.ndarray]:
    """(vectors, kappas, priors, fitted) of m classes whose members are the
    rows of X labeled y (or the rows `rows`, as class_sums reads them), all
    y in [0, m); kappas is None outside vMF.

    A class's vector is its add-one smoothed log word probabilities (NB), its
    L1-normalized sum (K-Means) or its unit mean direction (vMF), whose
    concentration is the Banerjee estimate from the mean resultant length.
    Priors are add-one smoothed member counts. fitted[j] is False where the
    sum is degenerate (K-Means all-zero sum, vMF mean resultant 0); the caller
    decides what such a class gets."""
    vectors = class_sums(X, y, m, rows)  # fitted in place
    counts = np.bincount(y, minlength=m).astype(np.float64)
    priors = (counts + 1.0) / (counts.sum() + m)
    kappas = None
    if family is ModelFamily.NB:
        vectors += 1.0
        vectors /= vectors.sum(axis=1, keepdims=True)
        np.log(vectors, out=vectors)
        return vectors, None, priors, np.ones(m, dtype=bool)
    if family is ModelFamily.KMEANS:
        norms = np.abs(vectors).sum(axis=1)
        fitted = norms > 0.0
    else:
        # each class's dot with itself is the BLAS dot np.linalg.norm takes
        norms = np.sqrt((vectors[:, None, :] @ vectors[:, :, None])[:, 0, 0])
        fitted = norms > 1e-12
        rbar = norms / np.maximum(counts, 1.0)
        kappas = np.array([_banerjee_kappa(float(r), X.shape[1]) for r in rbar])
    if fitted.all():
        vectors /= norms[:, None]
    else:
        vectors[fitted] /= norms[fitted, None]
    return vectors, kappas, priors, fitted


def fit_seeds(
    d: Dataset, p: SeedPartition, family: ModelFamily
) -> tuple[np.ndarray, Optional[np.ndarray], np.ndarray, np.ndarray]:
    """(vectors, kappas, priors, assignments) of the supervised start: one
    class per seeded gold class, fitted from its labeled instances, which
    are assigned to it. Unlabeled instances start unassigned (-1)."""
    seeded = p.seeded_class_ids.tolist()  # none: a fully unsupervised start
    k = len(seeded)
    labeled = p.labeled_idx
    y = p.labeled_classes(d)
    if np.any(y < 0):
        raise KeyError(int(d.gold_ids[labeled[np.argmax(y < 0)]]))
    counts = np.bincount(y, minlength=k)
    if not counts.all():
        raise ValueError(f"seeded class {seeded[np.argmin(counts)]} has no labeled instances")

    vectors, kappas, priors, fitted = fit_classes(family, d.matrix(), y, k, labeled)
    if not fitted.all():
        why = ("degenerate all-zero seed mean" if family is ModelFamily.KMEANS
               else "seed directions cancel (mean resultant 0)")
        raise ValueError(f"seeded class {seeded[np.argmin(fitted)]}: {why}")
    assignments = np.full(len(d), -1, dtype=np.int64)
    assignments[labeled] = y
    return vectors, kappas, priors, assignments


def init_from_seeds(d: Dataset, p: SeedPartition, family: ModelFamily) -> ModelState:
    """The state of fit_seeds' supervised start."""
    vectors, kappas, priors, assignments = fit_seeds(d, p, family)
    return ModelState(family, d.matrix(), vectors, priors, p.seeded_class_ids.tolist(),
                      assignments, kappas)


def init_new_class(
    X: sp.csr_matrix, i: int, family: ModelFamily
) -> tuple[np.ndarray, Optional[float]]:
    """(vector, kappa) of a brand-new class seeded by row i of X alone, kappa
    None outside vMF: add-one smoothed log probabilities (NB), the row plus
    1/V per word, L1-normalized (K-Means), or the row's direction at
    concentration KAPPA_NEW (vMF)."""
    lo, hi = X.indptr[i], X.indptr[i + 1]
    if lo == hi:
        raise ValueError("cannot initialize a class from an all-zero instance")
    V = X.shape[1]
    # each family builds its vector in one V-length array, in place
    if family is ModelFamily.VMF:
        out = np.zeros(V)
        out[X.indices[lo:hi]] = X.data[lo:hi]
        out /= np.linalg.norm(out)
        return out, KAPPA_NEW
    out = np.full(V, 1.0 if family is ModelFamily.NB else 1.0 / V)
    out[X.indices[lo:hi]] += X.data[lo:hi]
    out /= out.sum()
    if family is ModelFamily.NB:
        np.log(out, out=out)
    return out, None


def m_step(state: ModelState) -> ModelState:
    """Re-estimate all parameters of the state's rows X from their current
    hard assignments: refit of the state's family, X, assignments, seeded
    classes and vectors.

    The argument's scores and spare room are dropped first (its scores is
    None after the call), so the new state's product never lives beside
    them; of its arrays, only the vector of a class left without a fit,
    which that class keeps, is read from then on, and the vectors are not
    stacked."""
    state.scores = state._columns = None
    state._room = 0
    return refit(state.family, state.X, state.assignments, state.seed_class_ids,
                 [*state._stacked, *state._opened])


def refit(
    family: ModelFamily, X: sp.csr_matrix, y: np.ndarray, seed_class_ids: list[int],
    vectors: Sequence[np.ndarray],
) -> ModelState:
    """The state of the rows of X fitted to hard assignments y over the
    classes of vectors, the first len(seed_class_ids) of them seeded.
    vectors holds one V-vector per class: an (m, V) array or a list of rows.

    Introduced classes left without members are dropped (assignment ids are
    remapped); seeded classes always survive, and one whose sum is degenerate
    (an empty seeded class) keeps its vector at concentration KAPPA_MIN, and
    the state says so in kept_old_vector. Only such a class's old vector is
    read."""
    if np.any(y < 0):
        raise ValueError("all instances must be assigned before the M-step")
    m = len(vectors)
    counts = np.bincount(y, minlength=m)
    keep = np.flatnonzero((np.arange(m) < len(seed_class_ids)) | (counts > 0))
    remap = np.full(m, -1, dtype=np.int64)
    remap[keep] = np.arange(len(keep))
    y_new = remap[y]

    fitted_vectors, kappas, priors, fitted = fit_classes(family, X, y_new, len(keep))
    stale = ~fitted
    for j in np.flatnonzero(stale):
        fitted_vectors[j] = vectors[keep[j]]
    if kappas is not None:
        kappas[stale] = KAPPA_MIN
    state = ModelState(family, X, fitted_vectors, priors, seed_class_ids, y_new, kappas)
    state.kept_old_vector = bool(stale.any())
    return state


def data_log_likelihood(state: ModelState) -> float:
    """Complete-data log-likelihood sum_i log[P(C_{y_i}) P(x_i | C_{y_i})]
    under the current hard assignments, from each row's own-class entry of
    the state's scores.

    K-Means uses the documented surrogate log[P(C_j)(x . c_j + eps)]; it is a
    scoring surrogate, not a probability. vMF uses the asymptotic log
    normalizer of each row's own class, log c_d(kappa_{y_i})."""
    y = state.assignments
    if np.any(y < 0):
        raise ValueError("all instances must be assigned")
    own = state.scores[np.arange(len(y)), y]  # each row's dot with its own class's vector
    log_priors = np.log(state.priors)
    if state.family is ModelFamily.NB:
        return float(log_priors[y].sum() + own.sum())
    if state.family is ModelFamily.KMEANS:
        return float(np.sum(log_priors[y] + np.log(np.maximum(own, 0.0) + KMEANS_LL_EPS)))
    logc = _vmf_log_normalizer(state.kappas, state.X.shape[1])
    return float(np.sum(log_priors[y] + state.kappas[y] * own + logc[y]))


def free_parameter_count(state: ModelState) -> int:
    """Free parameters v for penalized model selection: m(V-1) multinomial or
    direction terms plus m-1 prior terms, plus m concentrations for vMF."""
    m = state.num_classes
    V = state.X.shape[1]
    base = m * (V - 1) + (m - 1)
    if state.family is ModelFamily.VMF:
        return base + m
    return base

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

import math
from enum import Enum
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .data import Dataset, SeedPartition

KAPPA_MIN = 1e-2
KAPPA_MAX = 1e4
KAPPA_NEW = 1.0  # the concentration of a class opened from one instance
KMEANS_LL_EPS = 1e-12  # floor inside log() for the K-Means likelihood surrogate
E_STEP_CHUNK = 512  # a pass's first chunk is twice this long (see PassScores)
CLASS_SUM_ENTRIES = 1 << 15  # about the entries class_sums adds in one np.add.at


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
    this one matrix."""

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
        self.vectors = vectors  # (m, V)
        self.priors = priors  # (m,)
        self.seed_class_ids = seed_class_ids
        self.assignments = assignments  # (n,), -1 = not yet assigned
        self.kappas = kappas  # (m,), vMF only
        self._validate()
        self.scores = X @ vectors.T  # (n, m)
        self._room = 0  # vectors and scores are the first m rows of _rows and columns of _columns

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
    def num_classes(self) -> int:
        return len(self.priors)

    @property
    def num_seeded(self) -> int:
        return len(self.seed_class_ids)

    def add_class(self, params: tuple[np.ndarray, Optional[float]]) -> int:
        """Append a freshly created (unseeded) class with the (vector, kappa)
        that init_new_class gives, and its column X @ vector of scores: the
        same sequential dot product over each row's stored entries as the
        whole product takes.

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
            # double the room, so that c openings copy O(c) rows and columns in all
            self._room = 2 * (m + 1)
            self._rows = np.empty((self._room, self.X.shape[1]))
            self._rows[:m] = self.vectors
            self._columns = np.empty((n, self._room))
            self._columns[:, :m] = self.scores
        self._rows[m] = vector
        self._columns[:, m] = self.X @ vector
        self.vectors = self._rows[: m + 1]
        self.scores = self._columns[:, : m + 1]
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
        self.scores = self.scores[:, :m_keep]
        self._room = 0  # never write over what an earlier vectors or scores showed
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
    vectorised passes over the columns. A longer row is added pairwise, in
    an order only a row sum repeats, so a wider array is summed over its
    transposed copy."""
    if a.shape[0] < 8:
        return a.sum(axis=0)
    return np.ascontiguousarray(a.T).sum(axis=1)


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


class PassScores:
    """Posteriors of the rows `rows` of a state's dataset, in pass order, for
    one E-step pass, handed out a chunk at a time from the state's scores,
    class-major: posteriors() of the chunk's scores as class_major lays
    them out, C-contiguous unless the chunk has fewer rows than classes.

    A class opened at one position makes the posteriors of the rest of its
    chunk stale. So a chunk starting at pass position start is

        min(rows left, max(2 * (start - last), gap))

    long, where last is the position of the last opening and gap the
    distance between the last two; the first opening of a pass counts its
    gap from -E_STEP_CHUNK. A pass that opens no class takes chunks of 2, 6,
    18, ... times E_STEP_CHUNK rows, each three times the one before, so
    a few chunks cover it; one whose openings lie hundreds of rows apart
    takes chunks that long right after each one, and one that opens a class
    at every row uses chunks of one or two rows.

    Only an opening wastes rows: the rest of its chunk. Say the k-th
    opening of a pass lies at o_k, with o_0 = -E_STEP_CHUNK and gaps
    g_k = o_k - o_(k-1), g_0 = 0. Its chunk starts at some s with
    o_(k-1) < s <= o_k, so it is at most max(2 (s - o_(k-1)), g_(k-1))
    <= 2 g_k + g_(k-1) long: twice its own gap plus the one before it. The
    gaps add up to at most n + E_STEP_CHUNK, and so do the gaps before the
    openings, so a pass over n rows hands out at most
    n + 2 (n + E_STEP_CHUNK) + (n + E_STEP_CHUNK) = 4n + 3 E_STEP_CHUNK rows'
    posteriors in all. A row's posterior does not depend on how the pass is
    split.
    """

    def __init__(self, rows: np.ndarray):
        self._rows = rows
        self._opened_at = -E_STEP_CHUNK
        self._gap = 0  # between the last two openings

    def add_class(self, pos: int) -> None:
        """Note that the row at pass position pos (in the last chunk handed
        out) opened a class."""
        self._gap = pos - self._opened_at
        self._opened_at = pos

    def posteriors(self, state: ModelState, start: int) -> np.ndarray:
        """posteriors() of the chunk of pass positions that begins at start,
        one column per position."""
        size = max(2 * (start - self._opened_at), self._gap)
        chunk = self._rows[start : start + size]
        return posteriors(state, class_major(state.scores, chunk))


def class_sums(X: sp.csr_matrix, y: np.ndarray, m: int) -> np.ndarray:
    """(m, V) sums of the rows of X per class label y[row], all y in [0, m).

    np.add.at adds the weights in entry order, so each (class, word) sum adds
    its rows in row order, as the product of a class-indicator matrix with X
    and X[rows].sum(axis=0) do. It reads X's read-only weights in place, and
    the flat (class, word) indices are formed a block of rows at a time, so
    that no temporary grows with the number of entries."""
    V = X.shape[1]
    sums = np.zeros(m * V)
    block = max(1, CLASS_SUM_ENTRIES * len(y) // max(X.nnz, 1))  # rows of that many entries
    for a in range(0, len(y), block):
        b = min(a + block, len(y))
        lo, hi = X.indptr[a], X.indptr[b]
        idx = np.repeat(y[a:b] * V, np.diff(X.indptr[a : b + 1]))
        idx += X.indices[lo:hi]
        np.add.at(sums, idx, X.data[lo:hi])
    return sums.reshape(m, V)


def fit_classes(
    family: ModelFamily, X: sp.csr_matrix, y: np.ndarray, m: int
) -> tuple[np.ndarray, Optional[np.ndarray], np.ndarray, np.ndarray]:
    """(vectors, kappas, priors, fitted) of m classes whose members are the
    rows of X labeled y, all y in [0, m); kappas is None outside vMF.

    A class's vector is its add-one smoothed log word probabilities (NB), its
    L1-normalized sum (K-Means) or its unit mean direction (vMF), whose
    concentration is the Banerjee estimate from the mean resultant length.
    Priors are add-one smoothed member counts. fitted[j] is False where the
    sum is degenerate (K-Means all-zero sum, vMF mean resultant 0); the caller
    decides what such a class gets."""
    vectors = class_sums(X, y, m)  # fitted in place
    counts = np.bincount(y, minlength=m).astype(np.float64)
    priors = (counts + 1.0) / (counts.sum() + m)
    kappas = None
    if family is ModelFamily.NB:
        vectors += 1.0
        np.log(vectors / vectors.sum(axis=1, keepdims=True), out=vectors)
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

    vectors, kappas, priors, fitted = fit_classes(family, d.matrix()[labeled], y, k)
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


def init_new_class(d: Dataset, i: int, family: ModelFamily) -> tuple[np.ndarray, Optional[float]]:
    """(vector, kappa) of a brand-new class seeded by row i of d alone, kappa
    None outside vMF: add-one smoothed log probabilities (NB), the row plus
    1/V per word, L1-normalized (K-Means), or the row's direction at
    concentration KAPPA_NEW (vMF)."""
    X = d.matrix()
    lo, hi = X.indptr[i], X.indptr[i + 1]
    if lo == hi:
        raise ValueError("cannot initialize a class from an all-zero instance")
    dense = np.zeros(d.vocab_size)
    dense[X.indices[lo:hi]] = X.data[lo:hi]
    if family is ModelFamily.NB:
        smoothed = dense + 1.0
        return np.log(smoothed / smoothed.sum()), None
    if family is ModelFamily.KMEANS:
        smoothed = dense + 1.0 / d.vocab_size
        return smoothed / smoothed.sum(), None
    return dense / np.linalg.norm(dense), KAPPA_NEW


def m_step(state: ModelState, d: Dataset) -> ModelState:
    """Re-estimate all parameters from the current hard assignments: refit
    of the state's family, assignments, seeded classes and vectors."""
    return refit(state.family, d, state.assignments, state.seed_class_ids, state.vectors)


def refit(
    family: ModelFamily, d: Dataset, y: np.ndarray, seed_class_ids: list[int],
    vectors: np.ndarray,
) -> ModelState:
    """The state fitted to hard assignments y over the classes of vectors,
    the first len(seed_class_ids) of them seeded.

    Introduced classes left without members are dropped (assignment ids are
    remapped); seeded classes always survive, and one whose sum is degenerate
    (an empty seeded class) keeps its vector at concentration KAPPA_MIN."""
    if np.any(y < 0):
        raise ValueError("all instances must be assigned before the M-step")
    m = len(vectors)
    counts = np.bincount(y, minlength=m)
    keep = np.flatnonzero((np.arange(m) < len(seed_class_ids)) | (counts > 0))
    remap = np.full(m, -1, dtype=np.int64)
    remap[keep] = np.arange(len(keep))
    y_new = remap[y]

    X = d.matrix()
    fitted_vectors, kappas, priors, fitted = fit_classes(family, X, y_new, len(keep))
    stale = ~fitted
    fitted_vectors[stale] = vectors[keep[stale]]
    if kappas is not None:
        kappas[stale] = KAPPA_MIN
    return ModelState(family, X, fitted_vectors, priors, seed_class_ids, y_new, kappas)


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

"""The batched E-step must agree exactly with the one-instance functions.

posteriors over a pass's score matrix, with or without a class added in the
middle of the pass, must equal posterior() and the per-instance reference
formulas below row by row, and minmax_fires / js_fires must equal
minmax_criterion / js_criterion row by row, without letting a RuntimeWarning
escape.

The class sums behind init_from_seeds and m_step, and the likelihood read
from a score matrix shared across a parameter update, must equal the
formulas they replaced (kept below as references) bit for bit.

The E-step pass, however its chunks fall, must leave the same model as a
pass that takes one row at a time.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from exploressl import models
from exploressl.criteria import (
    Criterion,
    CriterionConfig,
    CriterionKind,
    js_criterion,
    js_fires,
    minmax_criterion,
    minmax_fires,
)
from exploressl.data import Dataset, SeedPartition, SparseVector
from exploressl.engine import _e_step
from exploressl.models import (
    KAPPA_MIN,
    KMEANS_LL_EPS,
    ModelFamily,
    ModelState,
    PassScores,
    _banerjee_kappa,
    _vmf_log_normalizer,
    class_sums,
    data_log_likelihood,
    init_from_seeds,
    init_new_class,
    m_step,
    posterior,
)


def _state(family, rng, m, V):
    if family is ModelFamily.NB:
        vectors = np.log(rng.dirichlet(np.ones(V), size=m))
    elif family is ModelFamily.KMEANS:
        # zero out the last two words in every centroid, so an instance that
        # uses only those words scores 0 against every class
        vectors = rng.random((m, V))
        vectors[:, -2:] = 0.0
        vectors /= vectors.sum(axis=1, keepdims=True)
    else:
        vectors = rng.normal(size=(m, V))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    return ModelState(
        family,
        V,
        vectors,
        rng.dirichlet(np.ones(m)),
        list(range(m)),
        np.full(0, -1, dtype=np.int64),
        rng.uniform(0.5, 1e4, size=m) if family is ModelFamily.VMF else None,
    )


def _instances(rng, n, V):
    out = []
    for i in range(n):
        if i % 3 == 2:
            idx = [V - 2, V - 1]  # outside every K-Means centroid's support
        else:
            idx = sorted(rng.choice(V, size=int(rng.integers(1, V + 1)), replace=False))
        out.append(SparseVector.from_pairs((j, float(rng.integers(1, 5))) for j in idx))
    return out


def _reference_posterior(state, x):
    """Each family's posterior for one instance, written out per family as
    the per-instance E-step computed it. Its dot products are summed in the
    instance's stored order, as a CSR product sums them, so the batched
    posteriors must match it bit for bit."""
    m = state.num_classes
    dots = np.zeros(m)
    for j, v in zip(x.indices, x.values):
        dots += state.vectors[:, j] * v
    if state.family is ModelFamily.NB:
        logits = np.log(state.priors) + dots
    elif state.family is ModelFamily.KMEANS:
        p = state.priors * np.maximum(dots, 0.0)
        if p.sum() <= 0.0:
            return np.full(m, 1.0 / m)  # all inner products zero: uniform fallback
        return p / p.sum()
    else:
        logits = np.log(state.priors) + state.kappas * dots
    logits -= logits.max()
    p = np.exp(logits)
    return p / p.sum()


@given(
    st.sampled_from(list(ModelFamily)),
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.integers(3, 12),
    st.integers(1, 9),
)
@settings(max_examples=150, deadline=None)
def test_posteriors_match_posterior_row_by_row(family, seed, m, V, n):
    rng = np.random.default_rng(seed)
    state = _state(family, rng, m, V)
    xs = _instances(rng, n, V)
    d = Dataset.from_rows(xs, [None] * n, V)
    rows = np.arange(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        scores = PassScores(state, d, rows, d.matrix() @ state.vectors.T)
        start, opening = 0, False
        while start < n:
            chunk = scores.posteriors(state, start)
            assert 1 <= len(chunk) <= n - start
            for q, row in enumerate(chunk):
                assert np.array_equal(row, posterior(state, xs[start + q]))
                assert np.array_equal(row, _reference_posterior(state, xs[start + q]))
            if opening:
                # open a class at the chunk's first row, as the E-step does
                # mid-pass: the later rows see the new column and the
                # rescaled priors
                state.add_class(init_new_class(xs[start], family, V), n)
                scores.add_class(state, start)
                start += 1
            else:
                start += len(chunk)
            opening = not opening


def test_chunks_grow_back_after_an_opening():
    rng = np.random.default_rng(0)
    V, n = 6, 1300
    state = _state(ModelFamily.VMF, rng, 2, V)
    xs = _instances(rng, n, V)
    d = Dataset.from_rows(xs, [None] * n, V)
    scores = PassScores(state, d, np.arange(n), d.matrix() @ state.vectors.T)
    # open classes at 10, in the first window, and at 700, in the second,
    # as the E-step does when the criterion fires there; every row handed
    # out before and after them must match posterior()
    opens = [10, 700]
    sizes, start = [], 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        while start < n:
            chunk = scores.posteriors(state, start)
            sizes.append(len(chunk))
            stop = start + len(chunk)
            hit = next((q for q in opens if start <= q < stop), None)
            for q in range(start, stop if hit is None else hit + 1):
                assert np.array_equal(chunk[q - start], posterior(state, xs[q]))
            if hit is None:
                start = stop
            else:
                state.add_class(init_new_class(xs[hit], ModelFamily.VMF, V), n)
                scores.add_class(state, hit)
                start = hit + 1
    # a chunk after an opening is twice the distance back to it, and ends
    # with its window
    assert sizes == [512, 2, 6, 18, 54, 162, 259, 512, 2, 6, 18, 54, 162, 81, 276]


def test_kmeans_all_zero_scores_fall_back_to_uniform():
    rng = np.random.default_rng(0)
    state = _state(ModelFamily.KMEANS, rng, 4, 6)
    x = SparseVector.from_pairs([(4, 1.0), (5, 2.0)])
    d = Dataset.from_rows([x], [None], 6)
    batch = PassScores(state, d, np.arange(1), d.matrix() @ state.vectors.T).posteriors(state, 0)
    assert np.array_equal(batch[0], np.full(4, 0.25))
    assert np.array_equal(batch[0], posterior(state, x))


TINY = 5e-324  # smallest subnormal: max/min overflows to inf
EDGE_ROWS = [
    [1.0],  # k = 1
    [0.5, 0.5],
    [0.25] * 4,  # exactly uniform
    [0.6, 0.4, 0.0],  # zero minimum
    [1.0, 0.0],
    [1.0, TINY],  # max/min overflows
    [1.0 - 1e-17, TINY, TINY],
    [0.4, 0.3, 0.3],
    [0.5, 0.25, 0.25],  # ratio exactly 2
]


def _rows_of_width(k, extra):
    rows = [r for r in EDGE_ROWS if len(r) == k] + extra
    return np.array(rows, dtype=np.float64).reshape(len(rows), k)


@given(
    st.integers(1, 8),
    st.lists(st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8), max_size=12),
)
@settings(max_examples=200, deadline=None)
def test_criteria_match_scalar_row_by_row(k, raw):
    extra = []
    for r in raw:
        w = np.asarray(r[:k])
        if w.sum() > 0:
            extra.append(list(w / w.sum()))
    post = _rows_of_width(k, extra)
    if not len(post):
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        mm = minmax_fires(post)
        js = js_fires(post)
        for q, row in enumerate(post):
            if abs(row.sum() - 1.0) > 1e-9:
                continue  # the scalar functions reject it
            assert mm[q] == minmax_criterion(row)
            assert js[q] == js_criterion(row)


@pytest.mark.parametrize("row", EDGE_ROWS)
def test_edge_rows_batch_equals_scalar(row):
    post = np.array([row])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert minmax_fires(post)[0] == minmax_criterion(row)
        assert js_fires(post)[0] == js_criterion(row)


def test_overflowing_ratio_never_fires_minmax():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert not minmax_criterion([1.0, TINY])


def test_random_pass_draws_match_one_draw_per_instance():
    cfg = CriterionConfig(CriterionKind.RANDOM, random_rate=0.3, rng_seed=9)
    one_by_one = Criterion(cfg)
    per_instance = [one_by_one([0.5, 0.5]) for _ in range(40)]
    fires = Criterion(cfg).for_pass(40)
    post = np.full((40, 2), 0.5)
    # however the pass is split, row q gets the q-th draw
    assert list(fires(post, 0)) == per_instance
    assert list(fires(post[:15], 25)) == per_instance[25:]


def _float_rows(rng, n, V):
    """n instances with positive weights over five orders of magnitude, so a
    sum taken in another order would differ in its last bits."""
    out = []
    for _ in range(n):
        idx = sorted(rng.choice(V, size=int(rng.integers(1, V + 1)), replace=False))
        out.append(SparseVector.from_pairs((j, float(v)) for j, v in
                                           zip(idx, 10.0 ** rng.uniform(-2, 3, len(idx)))))
    return out


def _indicator_sums(X, y, m):
    """m_step's former class sums: a class-indicator matrix times X."""
    n = X.shape[0]
    A = sp.csr_matrix((np.ones(n), (y, np.arange(n))), shape=(m, n))
    return np.asarray((A @ X).todense())


def _row_sums(X, y, m):
    """init_from_seeds' former class sums: X[rows].sum(axis=0) per class."""
    return np.array(
        [np.asarray(X[np.flatnonzero(y == j)].sum(axis=0)).ravel() for j in range(m)]
    ).reshape(m, X.shape[1])


@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 12), st.integers(1, 40))
@settings(max_examples=150, deadline=None)
def test_class_sums_match_the_indicator_product(seed, m, V, n):
    rng = np.random.default_rng(seed)
    X = Dataset.from_rows(_float_rows(rng, n, V), [None] * n, V).matrix()
    # labels from a random subset of the classes, so that some are empty
    used = rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False)
    y = rng.choice(used, size=n)
    got = class_sums(X, y, m)
    assert np.array_equal(got, _indicator_sums(X, y, m))
    assert np.array_equal(got, _row_sums(X, y, m))
    assert not got[np.setdiff1d(np.arange(m), used)].any()


def _reference_params(family, s, count, V, old_vector):
    """One class's parameters as the per-class loops of init_from_seeds and
    m_step wrote them; a degenerate class keeps old_vector at KAPPA_MIN."""
    if family is ModelFamily.NB:
        smoothed = s + 1.0
        return np.log(smoothed / smoothed.sum()), None
    if family is ModelFamily.KMEANS:
        total = np.abs(s).sum()
        return (s / total if total > 0.0 else old_vector), None
    r = float(np.linalg.norm(s))
    if r > 1e-12:
        return s / r, _banerjee_kappa(r / max(count, 1.0), V)
    return old_vector, KAPPA_MIN


@given(
    st.sampled_from(list(ModelFamily)),
    st.integers(0, 2**32 - 1),
    st.integers(1, 5),
    st.integers(0, 3),
    st.integers(3, 12),
    st.integers(5, 40),
)
@settings(max_examples=150, deadline=None)
def test_m_step_and_seed_init_match_the_former_sums(family, seed, k, extra, V, n):
    rng = np.random.default_rng(seed)
    gold = rng.integers(k, size=n)
    anchors = rng.choice(n, size=k, replace=False)  # one labeled row per seeded class
    gold[anchors] = np.arange(k)
    labeled = sorted(set(anchors.tolist()) | set(np.flatnonzero(rng.random(n) < 0.5).tolist()))
    gold = gold.tolist()
    d = Dataset.from_rows(_float_rows(rng, n, V), gold, V)
    X = d.matrix()
    p = SeedPartition(frozenset(range(k)), frozenset(labeled),
                      frozenset(range(n)) - frozenset(labeled), 0)

    state = init_from_seeds(d, p, family)
    y = np.array([gold[i] for i in labeled])
    sums = _row_sums(X[labeled], y, k)
    counts = np.bincount(y, minlength=k)
    for j in range(k):
        vector, kappa = _reference_params(family, sums[j], int(counts[j]), V, None)
        assert np.array_equal(state.vectors[j], vector)
        assert family is not ModelFamily.VMF or state.kappas[j] == kappa
    assert np.array_equal(state.priors, (counts + 1.0) / (counts.sum() + k))

    # extra introduced classes, and labels that leave some classes of both
    # kinds empty: the seeded ones keep their parameters, the rest go
    for i in range(extra):
        state.add_class(init_new_class(d.row(i), family, V), n)
    m = state.num_classes
    state.assignments = rng.choice(rng.choice(m, size=int(rng.integers(1, m + 1))), size=n)
    old = state.vectors.copy()
    counts = np.bincount(state.assignments, minlength=m).astype(np.float64)
    keep = [j for j in range(m) if j < state.num_seeded or counts[j] > 0]
    remap = np.full(m, -1, dtype=np.int64)
    remap[keep] = np.arange(len(keep))
    sums = _indicator_sums(X, remap[state.assignments], len(keep))
    new = m_step(state, d)
    assert np.array_equal(new.assignments, remap[state.assignments])
    for j, old_j in enumerate(keep):
        vector, kappa = _reference_params(family, sums[j], counts[old_j], V, old[old_j])
        assert np.array_equal(new.vectors[j], vector)
        assert family is not ModelFamily.VMF or new.kappas[j] == kappa
    assert np.array_equal(new.priors, (counts[keep] + 1.0) / (counts[keep].sum() + len(keep)))


def _reference_log_likelihood(state, d):
    """data_log_likelihood as written before it could read shared scores: the
    whole (n, m) product, then each row's own-class entry."""
    X, y, n = d.matrix(), state.assignments, len(d)
    log_priors = np.log(state.priors)
    own = (X @ state.vectors.T)[np.arange(n), y]
    if state.family is ModelFamily.NB:
        return float(log_priors[y].sum() + own.sum())
    if state.family is ModelFamily.KMEANS:
        return float(np.sum(log_priors[y] + np.log(np.maximum(own, 0.0) + KMEANS_LL_EPS)))
    logc = _vmf_log_normalizer(state.kappas, d.vocab_size)
    return float(np.sum(log_priors[y] + state.kappas[y] * own + logc[y]))


@given(
    st.sampled_from(list(ModelFamily)),
    st.integers(0, 2**32 - 1),
    st.integers(1, 5),
    st.integers(3, 12),
    st.integers(1, 30),
    st.integers(0, 3),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_log_likelihood_from_shared_scores_is_exact(family, seed, m, V, n, opened, drop):
    rng = np.random.default_rng(seed)
    state = _state(family, rng, m, V)
    d = Dataset.from_rows(_float_rows(rng, n, V), [None] * n, V)
    state.assignments = rng.integers(m, size=n)
    scores = d.matrix() @ state.vectors.T
    # classes opened after scores was taken, as an E-step pass opens them
    for _ in range(opened):
        i = int(rng.integers(n))
        j = state.add_class(init_new_class(d.row(i), family, V), n)
        state.assignments[rng.random(n) < 0.3] = j
        state.assignments[i] = j
    if drop:
        # the rejected model: back to the classes scores covers
        state.truncate(m)
        late = state.assignments >= m
        state.assignments[late] = rng.integers(m, size=int(late.sum()))
    got = data_log_likelihood(state, d, scores)
    assert got == data_log_likelihood(state, d)
    assert got == _reference_log_likelihood(state, d)


def test_scores_of_another_shape_are_refused():
    rng = np.random.default_rng(0)
    state = _state(ModelFamily.NB, rng, 2, 5)
    d = Dataset.from_rows(_float_rows(rng, 4, 5), [None] * 4, 5)
    state.assignments = np.zeros(4, dtype=np.int64)
    scores = d.matrix() @ state.vectors.T
    wider = np.hstack([scores, scores[:, :1]])  # a column for a class not in state
    for bad in (wider, scores[:3]):
        with pytest.raises(ValueError, match="scores"):
            data_log_likelihood(state, d, bad)
        with pytest.raises(ValueError, match="scores"):
            PassScores(state, d, np.arange(4), bad)


def _reference_e_step(state, d, rows, kappa_init, opens):
    """The hard E-step one row at a time: a row flagged in opens starts a
    class seeded by itself, any other row takes its argmax class."""
    changed = 0
    for pos, i in enumerate(rows):
        if opens[pos]:
            params = init_new_class(d.row(i), state.family, d.vocab_size, kappa_init)
            j = state.add_class(params, len(d))
        else:
            j = int(np.argmax(posterior(state, d.row(i))))
        changed += int(state.assignments[i] != j)
        state.assignments[i] = j
    return changed


@given(
    st.sampled_from(list(ModelFamily)),
    st.integers(0, 2**32 - 1),
    st.integers(1, 5),
    st.integers(3, 12),
    st.integers(1, 40),
    st.floats(0.0, 0.5),
    st.sampled_from([1, 3, 7, models.E_STEP_CHUNK]),
)
@settings(max_examples=150, deadline=None)
def test_e_step_pass_matches_one_row_at_a_time(family, seed, m, V, n, rate, chunk):
    batched, reference = (_state(family, np.random.default_rng(seed), m, V) for _ in range(2))
    rng = np.random.default_rng([seed, 1])
    d = Dataset.from_rows(_instances(rng, n, V), [None] * n, V)
    rows = rng.permutation(n)[: int(rng.integers(1, n + 1))]
    opens = rng.random(len(rows)) < rate
    kappa_init = float(rng.uniform(0.5, 5.0))
    batched.assignments = rng.integers(-1, m, size=n)
    reference.assignments = batched.assignments.copy()

    def fires(post, start):
        return opens[start : start + len(post)]

    base = d.matrix() @ batched.vectors.T
    with warnings.catch_warnings(), mock.patch.object(models, "E_STEP_CHUNK", chunk):
        warnings.simplefilter("error", RuntimeWarning)
        # a pass that opens nothing runs without a criterion, as semisup_em's do
        changed = _e_step(batched, d, rows, base, kappa_init, fires if opens.any() else None)
    want = _reference_e_step(reference, d, rows, kappa_init, opens)
    assert changed == want
    assert np.array_equal(batched.assignments, reference.assignments)
    assert batched.num_classes == reference.num_classes == m + int(opens.sum())
    assert np.array_equal(batched.vectors, reference.vectors)
    assert np.array_equal(batched.priors, reference.priors)
    if family is ModelFamily.VMF:
        assert np.array_equal(batched.kappas, reference.kappas)

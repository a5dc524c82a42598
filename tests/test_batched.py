"""The batched E-step must agree exactly with the one-instance functions.

posteriors over a pass's score matrix, with or without a class added in the
middle of the pass, must equal posterior() and the per-instance reference
formulas below instance by instance (a chunk holds one instance per column),
and minmax_fires / js_fires must equal minmax_criterion / js_criterion
instance by instance, without letting a RuntimeWarning escape.

The class sums behind init_from_seeds and m_step must equal the formulas
they replaced (kept below as references) bit for bit. So must the score
matrix a model state keeps, however classes open and are cut, against the
whole product, and the likelihood read from it.

The E-step pass, however its chunks fall, must leave the same model as a
pass that takes one row at a time, and the state's scores must equal the
product over every row and class after it. However classes open, a pass over n
rows hands out at most 4n + 3 E_STEP_CHUNK rows' posteriors. A pass that
cannot open a class takes each row's argmax logit, which must be the argmax of
its posteriors on K-Means rows without a positive score and on exact ties.

The class-axis sum behind posteriors, the JS divergence and the Gibbs pick
must equal numpy's sum of each instance's classes laid out as a row, bit for
bit, at any class count.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from exploressl import engine
from exploressl.criteria import (
    CriterionConfig,
    CriterionKind,
    for_pass,
    js_criterion,
    js_fires,
    minmax_criterion,
    minmax_fires,
)
from exploressl.data import SeedPartition, make_partitions
from exploressl.engine import _e_step, _pass
from exploressl.models import (
    KAPPA_MIN,
    KMEANS_LL_EPS,
    ModelFamily,
    ModelState,
    _banerjee_kappa,
    _vmf_log_normalizer,
    class_sums,
    data_log_likelihood,
    fit_classes,
    fit_seeds,
    init_from_seeds,
    init_new_class,
    m_step,
    posterior,
    posteriors,
    sum_classes,
)
from reference import from_pairs, from_rows


def _params(family, rng, m, V):
    """Random parameters of m classes over V words, as ModelState's keyword
    arguments."""
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
    return dict(
        vectors=vectors,
        priors=rng.dirichlet(np.ones(m)),
        seed_class_ids=list(range(m)),
        kappas=rng.uniform(0.5, 1e4, size=m) if family is ModelFamily.VMF else None,
    )


def _state(family, params, d):
    """A state of d with the given parameters and every row unassigned."""
    return ModelState(family, d.matrix(), assignments=np.full(len(d), -1, dtype=np.int64),
                      **params)


def _instances(rng, n, V):
    out = []
    for i in range(n):
        if i % 3 == 2:
            idx = [V - 2, V - 1]  # outside every K-Means centroid's support
        else:
            idx = sorted(rng.choice(V, size=int(rng.integers(1, V + 1)), replace=False))
        out.append(from_pairs(((j, float(rng.integers(1, 5))) for j in idx), V))
    return out


def _reference_posterior(state, x):
    """Each family's posterior for one instance, written out per family as
    the per-instance E-step computed it. Its dot products are summed in the
    instance's stored order, as a CSR product sums them, so the batched
    posteriors must match it bit for bit."""
    m = state.num_classes
    dots = np.zeros(m)
    for j, v in zip(x.indices, x.data):
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
    params = _params(family, rng, m, V)
    xs = _instances(rng, n, V)
    d = from_rows(xs, [-1] * n, V)
    state = _state(family, params, d)
    starts = []

    def pick(chunk, start):
        assert chunk.shape[0] == state.num_classes and 1 <= chunk.shape[1] <= n - start
        # one numpy inner loop per class, or per row where rows are fewer
        wide = chunk.shape[1] >= chunk.shape[0]
        assert chunk.flags.c_contiguous if wide else chunk.flags.f_contiguous
        for q, column in enumerate(chunk.T):
            assert np.array_equal(column, posterior(state, xs[start + q]))
            assert np.array_equal(column, _reference_posterior(state, xs[start + q]))
        # every other chunk opens a class at its first row, as the E-step
        # does mid-pass: the later rows see the new column and the rescaled
        # priors
        opening = len(starts) % 2 == 1
        starts.append(start)
        taken = 0 if opening else chunk.shape[1]
        return chunk[:, :taken].argmax(axis=0), opening

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _pass(state, np.arange(n), pick)


def test_chunks_grow_back_after_an_opening():
    rng = np.random.default_rng(0)
    V, n = 6, 1300
    params = _params(ModelFamily.VMF, rng, 2, V)
    xs = _instances(rng, n, V)
    d = from_rows(xs, [-1] * n, V)
    state = _state(ModelFamily.VMF, params, d)
    # open classes at 10, in the first chunk, and at 700, in a later chunk,
    # as the E-step does when the criterion fires there; every row handed
    # out before and after them must match posterior()
    opens = [10, 700]
    sizes = []

    def pick(chunk, start):
        sizes.append(chunk.shape[1])
        stop = start + chunk.shape[1]
        hit = next((q for q in opens if start <= q < stop), None)
        for q in range(start, stop if hit is None else hit + 1):
            assert np.array_equal(chunk[:, q - start], posterior(state, xs[q]))
        taken = chunk.shape[1] if hit is None else hit - start
        return chunk[:, :taken].argmax(axis=0), hit is not None

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _pass(state, np.arange(n), pick)
    # each chunk is max(2 * (start - last opening), gap between the last two
    # openings) long, cut at the pass's end, the first opening counted from
    # -E_STEP_CHUNK = -512: from 0, 2 * 512 = 1024; the opening at 10 makes
    # the gap 522, so from 11, max(2, 522) = 522; from 533, max(1046, 522)
    # reaches the end, 767 rows; the opening at 700 makes the gap 690, so
    # from 701, max(2, 690) reaches the end, 599 rows
    assert sizes == [1024, 522, 767, 599]


def _opening_pattern(draw, n):
    """Pass positions that ask to open a class: at random, at every row, or
    none for a long gap and then a burst."""
    kind = draw(st.sampled_from(["random", "every row", "gap then burst"]))
    if kind == "random":
        rate = draw(st.floats(0.0, 1.0))
        return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(n) < rate
    if kind == "every row":
        return np.ones(n, dtype=bool)
    gap = draw(st.integers(0, n))
    burst = draw(st.integers(0, n - gap))
    return (np.arange(n) >= gap) & (np.arange(n) < gap + burst)


@given(st.data(), st.integers(1, 300), st.sampled_from([1, 2, 5, 16, 64, engine.E_STEP_CHUNK]))
@settings(max_examples=60, deadline=None)
def test_chunks_stay_within_the_bound_for_any_openings(data, n, chunk):
    rng = np.random.default_rng(n)
    V = 6
    params = _params(ModelFamily.NB, rng, 2, V)
    xs = _instances(rng, n, V)
    d = from_rows(xs, [-1] * n, V)
    state = _state(ModelFamily.NB, params, d)
    opens = _opening_pattern(data.draw, n)
    handed = []

    def pick(post, start):
        assert 1 <= post.shape[1] <= n - start
        handed.append(post.shape[1])
        hit = start + int(np.argmax(opens[start : start + post.shape[1]]))
        taken = hit - start if opens[hit] else post.shape[1]
        # every row the pass takes, up to and including the one that
        # opens a class, sees the model as posterior() does
        for q in range(start, start + taken + int(opens[hit])):
            assert np.array_equal(post[:, q - start], posterior(state, xs[q]))
        return post[:, :taken].argmax(axis=0), bool(opens[hit])

    with mock.patch.object(engine, "E_STEP_CHUNK", chunk):
        _pass(state, np.arange(n), pick)
    # each opening wastes at most twice its gap plus the one before it, and
    # the gaps add up to at most n + E_STEP_CHUNK (README, Model fitting)
    assert sum(handed) <= 4 * n + 3 * chunk


def test_kmeans_all_zero_scores_fall_back_to_uniform():
    rng = np.random.default_rng(0)
    params = _params(ModelFamily.KMEANS, rng, 4, 6)
    x = from_pairs([(4, 1.0), (5, 2.0)])
    d = from_rows([x], [-1], 6)
    state = _state(ModelFamily.KMEANS, params, d)
    chunks = []

    def pick(post, start):
        chunks.append(post)
        return post.argmax(axis=0), False

    _pass(state, np.arange(1), pick)
    batch = chunks[0]
    assert np.array_equal(batch[:, 0], np.full(4, 0.25))
    assert np.array_equal(batch[:, 0], posterior(state, x))


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
        for chunk in (post.T, np.ascontiguousarray(post.T)):  # either class_major layout
            mm = minmax_fires(chunk)
            js = js_fires(chunk)
            for q, row in enumerate(post):
                if abs(row.sum() - 1.0) > 1e-9:
                    continue  # the scalar functions reject it
                assert mm[q] == minmax_criterion(row)
                assert js[q] == js_criterion(row)


@pytest.mark.parametrize("row", EDGE_ROWS)
def test_edge_rows_batch_equals_scalar(row):
    post = np.array([row]).T
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert minmax_fires(post)[0] == minmax_criterion(row)
        assert js_fires(post)[0] == js_criterion(row)


def test_overflowing_ratio_never_fires_minmax():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert not minmax_criterion([1.0, TINY])


def test_random_pass_draws_match_one_draw_per_instance():
    cfg = CriterionConfig(CriterionKind.RANDOM, random_rate=0.3)
    one_by_one = np.random.default_rng(9)
    per_instance = [for_pass(cfg, 1, one_by_one)(np.full((2, 1), 0.5), 0)[0] for _ in range(40)]
    fires = for_pass(cfg, 40, np.random.default_rng(9))
    post = np.full((2, 40), 0.5)
    # however the pass is split, the instance at position q gets the q-th draw
    assert list(fires(post, 0)) == per_instance
    assert list(fires(post[:, :15], 25)) == per_instance[25:]


TINIES = np.array([5e-324, -5e-324, 1e-310, -2.2e-308, 0.0, -0.0])


@given(
    st.integers(0, 2**32 - 1),
    st.one_of(st.integers(1, 16), st.integers(1, 300)),  # often near 8, where the sum switches
    st.integers(1, 40),
    st.floats(0.0, 1.0),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_sum_classes_equals_numpy_row_sums(seed, m, r, tiny, signed):
    # mixed magnitudes over 600 orders, with zeros of either sign and
    # subnormals among them; the sums must match bit for bit, zero signs too
    rng = np.random.default_rng(seed)
    a = rng.random((m, r)) * 10.0 ** rng.uniform(-300, 300, (m, r))
    if signed:
        a *= rng.choice([-1.0, 1.0], size=a.shape)
    hit = rng.random(a.shape) < tiny
    a[hit] = rng.choice(TINIES, size=int(hit.sum()))
    want = np.ascontiguousarray(a.T).sum(axis=1)
    for layout in (a, np.asfortranarray(a)):
        assert sum_classes(layout).view(np.uint64).tolist() == want.view(np.uint64).tolist()


@given(
    st.integers(0, 2**32 - 1),
    # where numpy's pairwise sum changes course: 8 accumulators, their tail,
    # and the halving above 128 entries, once and twice
    st.one_of(st.sampled_from([8, 9, 16, 127, 128, 129, 136, 256, 257]), st.integers(8, 300)),
    st.integers(0, 40),
    st.floats(0.0, 1.0),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_sum_classes_on_wide_chunks_equals_numpy_row_sums(seed, m, extra, tiny, signed):
    # r >= m columns, so from 8 classes on the pairwise order is rebuilt down
    # the classes; all-zero columns of either sign are drawn too
    rng = np.random.default_rng(seed)
    r = m + extra
    a = rng.random((m, r)) * 10.0 ** rng.uniform(-300, 300, (m, r))
    if signed:
        a *= rng.choice([-1.0, 1.0], size=a.shape)
    hit = rng.random(a.shape) < tiny
    a[hit] = rng.choice(TINIES, size=int(hit.sum()))
    a[:, 0] = -0.0
    a[:, -1] = rng.choice([0.0, -0.0], size=m)
    want = np.ascontiguousarray(a.T).sum(axis=1)
    for layout in (a, np.asfortranarray(a)):
        assert sum_classes(layout).view(np.uint64).tolist() == want.view(np.uint64).tolist()


def _float_rows(rng, n, V):
    """n instances with positive weights over five orders of magnitude, so a
    sum taken in another order would differ in its last bits."""
    out = []
    for _ in range(n):
        idx = sorted(rng.choice(V, size=int(rng.integers(1, V + 1)), replace=False))
        out.append(from_pairs(zip(idx, 10.0 ** rng.uniform(-2, 3, len(idx))), V))
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
    X = from_rows(_float_rows(rng, n, V), [-1] * n, V).matrix()
    # labels from a random subset of the classes, so that some are empty
    used = rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False)
    y = rng.choice(used, size=n)
    got = class_sums(X, y, m)
    assert np.array_equal(got, _indicator_sums(X, y, m))
    assert np.array_equal(got, _row_sums(X, y, m))
    assert not got[np.setdiff1d(np.arange(m), used)].any()


@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 12), st.integers(1, 40),
       st.sampled_from([1, 7, 1 << 15]))
@settings(max_examples=150, deadline=None)
def test_class_sums_of_chosen_rows_equal_those_of_their_copy(seed, m, V, n, entries):
    # rows in any order, some twice, summed a few entries' block at a time
    # or all at once: the sums of the copy X[rows] bit for bit
    rng = np.random.default_rng(seed)
    X = from_rows(_float_rows(rng, n, V), [-1] * n, V).matrix()
    rows = rng.choice(n, size=int(rng.integers(1, 2 * n + 1)))
    y = rng.integers(m, size=len(rows))
    with mock.patch("exploressl.models.CLASS_SUM_ENTRIES", entries):
        got = class_sums(X, y, m, rows)
        want = class_sums(X[rows], y, m)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@pytest.mark.parametrize("family", list(ModelFamily))
def test_fit_seeds_equals_the_fit_of_the_copied_labeled_rows(family):
    # fit_seeds sums the labeled rows in place: on random partitions its
    # arrays are those of the fit of the copy d.matrix()[labeled]
    rng = np.random.default_rng(3)
    for trial in range(20):
        n, V, k = int(rng.integers(8, 60)), int(rng.integers(3, 30)), int(rng.integers(1, 4))
        gold = rng.integers(k + 1, size=n)
        d = from_rows(_float_rows(rng, n, V), gold.tolist(), V)
        for p in make_partitions(d, k, float(rng.uniform(0.2, 0.9)), 2, trial):
            y = p.labeled_classes(d)
            vectors, kappas, priors, _ = fit_classes(family, d.matrix()[p.labeled_idx], y, k)
            got = fit_seeds(d, p, family)
            for mine, want in zip(got[:3], (vectors, kappas, priors)):
                assert (mine is want is None) or mine.tobytes() == want.tobytes()


@pytest.mark.parametrize("family", list(ModelFamily))
def test_a_new_class_equals_its_former_construction(family):
    # init_new_class builds the vector in place; the former construction
    # made the dense row, its smoothed copy and the normalised result
    rng = np.random.default_rng(4)
    V = 50
    X = from_rows(_float_rows(rng, 30, V), [-1] * 30, V).matrix()
    for i in range(30):
        dense = X[i].toarray()[0]
        if family is ModelFamily.NB:
            smoothed = dense + 1.0
            want = np.log(smoothed / smoothed.sum())
        elif family is ModelFamily.KMEANS:
            smoothed = dense + 1.0 / V
            want = smoothed / smoothed.sum()
        else:
            want = dense / np.linalg.norm(dense)
        vector, _ = init_new_class(X, i, family)
        assert vector.tobytes() == want.tobytes()


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
    st.integers(0, 5),
    st.integers(0, 3),
    st.integers(3, 12),
    st.integers(5, 40),
)
@settings(max_examples=150, deadline=None)
def test_m_step_and_seed_init_match_the_former_sums(family, seed, k, extra, V, n):
    # k = 0 is the unsupervised start: no seeded class and no labeled row
    rng = np.random.default_rng(seed)
    gold = rng.integers(max(k, 1), size=n)
    anchors = rng.choice(n, size=k, replace=False)  # one labeled row per seeded class
    gold[anchors] = np.arange(k)
    labeled = sorted(set(anchors.tolist()) | set(np.flatnonzero(rng.random(n) < 0.5).tolist()))
    labeled = labeled if k else []
    extra = extra if k else max(extra, 1)
    gold = gold.tolist()
    d = from_rows(_float_rows(rng, n, V), gold, V)
    X = d.matrix()
    p = SeedPartition(range(k), labeled, sorted(set(range(n)) - set(labeled)))

    state = init_from_seeds(d, p, family)
    y = np.array([gold[i] for i in labeled], dtype=np.int64)
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
        state.add_class(init_new_class(d.matrix(), i, family))
    m = state.num_classes
    state.assignments = rng.choice(rng.choice(m, size=int(rng.integers(1, m + 1))), size=n)
    old = state.vectors.copy()
    counts = np.bincount(state.assignments, minlength=m).astype(np.float64)
    keep = [j for j in range(m) if j < state.num_seeded or counts[j] > 0]
    remap = np.full(m, -1, dtype=np.int64)
    remap[keep] = np.arange(len(keep))
    sums = _indicator_sums(X, remap[state.assignments], len(keep))
    new = m_step(state)
    assert np.array_equal(new.assignments, remap[state.assignments])
    for j, old_j in enumerate(keep):
        vector, kappa = _reference_params(family, sums[j], counts[old_j], V, old[old_j])
        assert np.array_equal(new.vectors[j], vector)
        assert family is not ModelFamily.VMF or new.kappas[j] == kappa
    assert np.array_equal(new.priors, (counts[keep] + 1.0) / (counts[keep].sum() + len(keep)))


def _reference_log_likelihood(state, d):
    """data_log_likelihood as written before the state kept its scores: the
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
    st.integers(1, 4),
    st.integers(3, 12),
    st.integers(0, 30),
    st.booleans(),
    st.lists(st.one_of(st.just("truncate"), st.integers(0, 2**16)), max_size=10),
)
@settings(max_examples=200, deadline=None)
def test_state_scores_stay_the_product(family, seed, k, V, extra, fitted, ops):
    # from init_from_seeds or m_step, every add_class (an integer: the row
    # that opens the class) and truncate keeps scores the whole product, and
    # the likelihood read from it exact
    rng = np.random.default_rng(seed)
    n = k + extra
    gold = np.concatenate([np.arange(k), rng.integers(k, size=extra)]).tolist()
    d = from_rows(_float_rows(rng, n, V), gold, V)
    p = SeedPartition(range(k), range(k), range(k, n))
    state = init_from_seeds(d, p, family)
    state.assignments[k:] = rng.integers(k, size=extra)
    if fitted:
        state = m_step(state)
    for op in [None, *ops]:
        if op == "truncate":
            m_keep = int(rng.integers(state.num_seeded, state.num_classes + 1))
            state.truncate(m_keep)
            late = state.assignments >= m_keep
            state.assignments[late] = rng.integers(m_keep, size=int(late.sum()))
        elif op is not None:
            i = op % n
            state.assignments[i] = state.add_class(init_new_class(d.matrix(), i, family))
        assert np.array_equal(state.scores, d.matrix() @ state.vectors.T)
        assert data_log_likelihood(state) == _reference_log_likelihood(state, d)


def _reference_e_step(state, d, rows, opens):
    """The hard E-step one row at a time: a row flagged in opens starts a
    class seeded by itself, any other row takes its argmax class."""
    changed = 0
    for pos, i in enumerate(rows):
        if opens[pos]:
            j = state.add_class(init_new_class(d.matrix(), i, state.family))
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
    st.sampled_from([1, 3, 7, engine.E_STEP_CHUNK]),
)
@settings(max_examples=150, deadline=None)
def test_e_step_pass_matches_one_row_at_a_time(family, seed, m, V, n, rate, chunk):
    rng = np.random.default_rng([seed, 1])
    d = from_rows(_instances(rng, n, V), [-1] * n, V)
    batched, reference = (_state(family, _params(family, np.random.default_rng(seed), m, V), d)
                          for _ in range(2))
    rows = rng.permutation(n)[: int(rng.integers(1, n + 1))]
    opens = rng.random(len(rows)) < rate
    batched.assignments = rng.integers(-1, m, size=n)
    reference.assignments = batched.assignments.copy()

    def fires(post, start):
        return opens[start : start + post.shape[1]]

    with warnings.catch_warnings(), mock.patch.object(engine, "E_STEP_CHUNK", chunk):
        warnings.simplefilter("error", RuntimeWarning)
        # a pass that opens nothing runs without a criterion, as semisup_em's do
        changed = _e_step(batched, rows, fires if opens.any() else None)
    want = _reference_e_step(reference, d, rows, opens)
    assert changed == want
    # the grown scores are the product over every row and every class
    assert np.array_equal(batched.scores, d.matrix() @ batched.vectors.T)
    assert np.array_equal(batched.assignments, reference.assignments)
    assert batched.num_classes == reference.num_classes == m + int(opens.sum())
    assert np.array_equal(batched.vectors, reference.vectors)
    assert np.array_equal(batched.priors, reference.priors)
    if family is ModelFamily.VMF:
        assert np.array_equal(batched.kappas, reference.kappas)


@pytest.mark.parametrize("family, priors, kappas, scores, want", [
    # K-Means rows whose scores are all zero or all negative take class 0,
    # the argmax of the uniform fallback; the prior weighs a positive score
    (ModelFamily.KMEANS, [0.2, 0.3, 0.5], None,
     [[0.0, 0.0, 0.0], [-1.0, -2.0, -0.5], [-1.0, 0.0, 0.0], [0.1, -1.0, 0.05]], [0, 0, 0, 2]),
    # exactly tied logits go to the lowest class id
    (ModelFamily.KMEANS, [0.5, 0.25, 0.25], None, [[0.1, 0.2, 0.2]], [0]),
    (ModelFamily.NB, [0.25] * 4, None, [[-3.0, -1.0, -1.0, -2.0], [-2.0] * 4], [1, 0]),
    # vMF weighs each score by its class's kappa
    (ModelFamily.VMF, [0.5, 0.5], [1.0, 10.0], [[0.9, 0.2], [0.9, 0.05]], [1, 0]),
])
def test_e_step_without_a_criterion_takes_the_posterior_argmax(
    family, priors, kappas, scores, want
):
    # row i of X is the i-th unit vector, so X @ vectors.T is base exactly; a
    # pass that opens no class reads nothing else
    base = np.array(scores)
    n, m = base.shape
    d = from_rows([from_pairs([(i, 1.0)]) for i in range(n)], [-1] * n, n)
    state = ModelState(family, d.matrix(), base.T.copy(), np.array(priors), list(range(m)),
                       np.zeros(n, dtype=np.int64), None if kappas is None else np.array(kappas))
    assert np.array_equal(state.scores, base)
    scores_before = state.scores
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        changed = _e_step(state, np.arange(n)[::-1])
        assert np.array_equal(state.assignments, posteriors(state, base.T).argmax(axis=0))
    assert state.assignments.tolist() == want
    assert changed == np.count_nonzero(want)
    assert state.scores is scores_before

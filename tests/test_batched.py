"""The batched E-step must agree exactly with the one-instance functions.

posteriors over a pass's score matrix, with or without a class added in the
middle of the pass, must equal posterior() and the per-instance reference
formulas below row by row, and minmax_fires / js_fires must equal
minmax_criterion / js_criterion row by row, without letting a RuntimeWarning
escape.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exploressl.criteria import (
    Criterion,
    CriterionConfig,
    CriterionKind,
    js_criterion,
    js_fires,
    minmax_criterion,
    minmax_fires,
)
from exploressl.data import Dataset, SparseVector
from exploressl.models import ModelFamily, ModelState, PassScores, init_new_class, posterior


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
        [True] * m,
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
        scores = PassScores(state, d, rows)
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
    scores = PassScores(state, d, np.arange(n))
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
    batch = PassScores(state, d, np.arange(1)).posteriors(state, 0)
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

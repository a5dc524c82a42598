import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exploressl.criteria import (
    Criterion,
    CriterionConfig,
    CriterionKind,
    _js_rows,
    js_criterion,
    js_divergence,
    js_from_uniform,
    minmax_criterion,
)


def js_oracle(p, q):
    """Direct-summation JS divergence, independent of the library path."""
    a = [(pi + qi) / 2.0 for pi, qi in zip(p, q)]
    total = 0.0
    for pi, ai in zip(p, a):
        if pi > 0:
            total += 0.5 * pi * math.log(pi / ai)
    for qi, ai in zip(q, a):
        if qi > 0:
            total += 0.5 * qi * math.log(qi / ai)
    return total


def random_distributions(seed, n, k=None):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        size = k or rng.integers(2, 9)
        p = rng.dirichlet(np.ones(size))
        yield p


class TestJsDivergence:
    def test_identical_is_zero(self):
        p = [0.2, 0.3, 0.5]
        assert js_divergence(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_supports_ln2(self):
        assert js_divergence([1.0, 0.0], [0.0, 1.0]) == pytest.approx(math.log(2.0))

    def test_hand_value(self):
        expected = 0.5 * (math.log(4 / 3) + 0.5 * math.log(2 / 3) + 0.5 * math.log(2))
        got = js_divergence([1.0, 0.0], [0.5, 0.5])
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.215762, abs=1e-6)

    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            k = rng.integers(2, 10)
            p, q = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k))
            assert js_divergence(p, q) == pytest.approx(js_oracle(p, q), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            js_divergence([1.0], [0.5, 0.5])

    def test_non_distribution(self):
        with pytest.raises(ValueError):
            js_divergence([0.9, 0.2], [0.5, 0.5])

    @given(st.integers(0, 10_000), st.integers(2, 8))
    def test_symmetric_bounded(self, seed, k):
        rng = np.random.default_rng(seed)
        p, q = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k))
        d = js_divergence(p, q)
        assert d == pytest.approx(js_divergence(q, p), abs=1e-12)
        assert -1e-15 <= d <= math.log(2.0) + 1e-12

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(3)
        p, q = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
        assert js_divergence(p, q) > 1e-6


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 100), st.integers(1, 512))
def test_js_from_uniform_equals_js_rows_against_uniform(seed, k, r):
    """Bit for bit what _js_rows gives for a uniform row broadcast against
    every posterior row, on rows with zeros, one-hot rows and uniform rows."""
    rng = np.random.default_rng(seed)
    post = rng.dirichlet(np.full(k, 0.5), size=r)
    zero = rng.random((r, k)) < 0.3
    zero[np.arange(r), rng.integers(k, size=r)] = False  # one entry of each row stays
    post[zero] = 0.0
    post /= post.sum(axis=1, keepdims=True)
    post[0] = 1.0 / k
    post[-1] = np.eye(k)[rng.integers(k)]
    assert np.array_equal(js_from_uniform(post), _js_rows(np.full(k, 1.0 / k), post))


class TestJsCriterion:
    def test_uniform_fires(self):
        assert js_criterion([0.25] * 4)

    def test_peaked_does_not(self):
        p = [0.97, 0.01, 0.01, 0.01]
        assert js_oracle([0.25] * 4, p) > 0.25
        assert not js_criterion(p)

    def test_near_uniform_k10(self):
        p = np.full(10, 0.1)
        p[0] += 0.001
        p[1] -= 0.001
        assert js_oracle(np.full(10, 0.1), p) < 0.1
        assert js_criterion(p)

    def test_uniform_fires_for_all_k(self):
        for k in range(2, 12):
            assert js_criterion([1.0 / k] * k)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(5)
        for p in random_distributions(8, 50):
            assert js_criterion(p) == js_criterion(rng.permutation(p))


class TestMinMaxCriterion:
    @pytest.mark.parametrize(
        "p,expected",
        [
            ([0.4, 0.3, 0.3], True),
            ([0.6, 0.3, 0.1], False),
            ([0.5, 0.25, 0.25], False),  # ratio exactly 2: strict
        ],
    )
    def test_examples(self, p, expected):
        assert minmax_criterion(p) is expected

    def test_zero_min_never_fires(self):
        assert not minmax_criterion([1.0, 0.0])

    def test_uniform_fires_for_all_k(self):
        for k in range(2, 12):
            assert minmax_criterion([1.0 / k] * k)

    def test_true_implies_factor_two_band(self):
        for p in random_distributions(21, 300):
            if minmax_criterion(p):
                assert p.max() < 2.0 * p.min()

    def test_permutation_invariant(self):
        rng = np.random.default_rng(6)
        for p in random_distributions(9, 50):
            assert minmax_criterion(p) == minmax_criterion(rng.permutation(p))


class TestRandomCriterion:
    @staticmethod
    def fires(crit, n):
        """The random criterion's flags over one pass of n uniform rows."""
        return crit.for_pass(n)(np.full((n, 2), 0.5), 0)

    def test_rate_zero_and_one(self):
        always = Criterion(CriterionConfig(CriterionKind.RANDOM, random_rate=1.0))
        never = Criterion(CriterionConfig(CriterionKind.RANDOM, random_rate=0.0))
        assert self.fires(always, 100).all()
        assert not self.fires(never, 100).any()

    def test_empirical_rate(self):
        crit = Criterion(CriterionConfig(CriterionKind.RANDOM, random_rate=0.1, rng_seed=1))
        hits = np.count_nonzero(self.fires(crit, 100_000))
        assert abs(hits / 100_000 - 0.1) < 0.01

    def test_deterministic_given_seed(self):
        a = Criterion(CriterionConfig(CriterionKind.RANDOM, random_rate=0.5, rng_seed=4))
        b = Criterion(CriterionConfig(CriterionKind.RANDOM, random_rate=0.5, rng_seed=4))
        assert np.array_equal(self.fires(a, 50), self.fires(b, 50))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CriterionConfig(CriterionKind.RANDOM)
        with pytest.raises(ValueError):
            CriterionConfig(CriterionKind.MINMAX, random_rate=0.5)

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exploressl.criteria import (
    CriterionConfig,
    CriterionKind,
    for_pass,
    js_criterion,
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


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 100), st.integers(1, 64))
def test_js_from_uniform_matches_oracle(seed, k, r):
    """js_from_uniform against the direct summation, on rows with zeros,
    one-hot rows and uniform rows."""
    rng = np.random.default_rng(seed)
    post = rng.dirichlet(np.full(k, 0.5), size=r)
    zero = rng.random((r, k)) < 0.3
    zero[np.arange(r), rng.integers(k, size=r)] = False  # one entry of each row stays
    post[zero] = 0.0
    post /= post.sum(axis=1, keepdims=True)
    post[0] = 1.0 / k
    post[-1] = np.eye(k)[rng.integers(k)]
    u = np.full(k, 1.0 / k)
    expected = [js_oracle(u, row) for row in post]
    assert np.allclose(js_from_uniform(post.T), expected, rtol=0.0, atol=1e-12)


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
    def fires(rate, n, seed=0):
        """The random criterion's flags over one pass of n uniform rows."""
        cfg = CriterionConfig(CriterionKind.RANDOM, random_rate=rate)
        return for_pass(cfg, n, np.random.default_rng(seed))(np.full((2, n), 0.5), 0)

    def test_rate_zero_and_one(self):
        assert self.fires(1.0, 100).all()
        assert not self.fires(0.0, 100).any()

    def test_empirical_rate(self):
        hits = np.count_nonzero(self.fires(0.1, 100_000, seed=1))
        assert abs(hits / 100_000 - 0.1) < 0.01

    def test_deterministic_given_seed(self):
        assert np.array_equal(self.fires(0.5, 50, seed=4), self.fires(0.5, 50, seed=4))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CriterionConfig(CriterionKind.RANDOM)
        with pytest.raises(ValueError):
            CriterionConfig(CriterionKind.MINMAX, random_rate=0.5)

import math

import numpy as np
import pytest

from exploressl.selection import (
    AiccUndefinedError,
    SelectionCriterion,
    accept_exploratory,
    criterion_for,
    score_model,
    score_with_fallback,
)


def formula_oracle(L, v, n, criterion):
    if criterion is SelectionCriterion.BIC:
        return -2 * L + v * math.log(n)
    if criterion is SelectionCriterion.AIC:
        return -2 * L + 2 * v
    return -2 * L + 2 * v + 2 * v * (v + 1) / (n - v - 1)


class TestScoreModel:
    def test_aicc_hand_value(self):
        s = score_model(0.0, 1, 10, SelectionCriterion.AICC)
        assert s.score == pytest.approx(2.5)

    def test_bic_hand_value(self):
        s = score_model(-50.0, 5, 100, SelectionCriterion.BIC)
        assert s.score == pytest.approx(100 + 5 * math.log(100))

    def test_zero_params(self):
        for crit in SelectionCriterion:
            assert score_model(-3.0, 0, 17, crit).score == pytest.approx(6.0)

    def test_aicc_domain_error(self):
        with pytest.raises(AiccUndefinedError):
            score_model(0.0, 10, 11, SelectionCriterion.AICC)

    def test_fallback_to_aic(self):
        # n = v + 1, the largest n at which AICc is undefined
        for v in (10, 3, 0):
            assert criterion_for(SelectionCriterion.AICC, v + 1, v) is SelectionCriterion.AIC
            explore, baseline = score_with_fallback(
                (-1.0, v), (-2.0, v), v + 1, SelectionCriterion.AICC)
            assert explore.criterion is baseline.criterion is SelectionCriterion.AIC
            assert explore.score == pytest.approx(2 + 2 * v)
            assert baseline.score == pytest.approx(4 + 2 * v)

    def test_fallback_when_only_the_larger_model_leaves_aicc_domain(self):
        # v=3 alone has AICc at n=11, but v=10 does not: both scores use AIC
        for explore_v, baseline_v in ((10, 3), (3, 10)):
            explore, baseline = score_with_fallback(
                (-1.0, explore_v), (-2.0, baseline_v), 11, SelectionCriterion.AICC)
            assert explore.criterion is baseline.criterion is SelectionCriterion.AIC
            assert explore.score == pytest.approx(2 + 2 * explore_v)
            assert baseline.score == pytest.approx(4 + 2 * baseline_v)

    def test_no_fallback_inside_aicc_domain_or_for_other_criteria(self):
        # the larger v is 3 at n = 11, or at n = v + 2, the smallest n at
        # which AICc is defined
        for crit in SelectionCriterion:
            for n, v in ((11, 3), (12, 10), (5, 3), (3, 1)):
                assert criterion_for(crit, n, v) is crit
                explore, baseline = score_with_fallback((-1.0, v), (-2.0, v - 1), n, crit)
                assert explore == score_model(-1.0, v, n, crit)
                assert baseline == score_model(-2.0, v - 1, n, crit)
        # BIC and AIC have no domain limit, so they never change
        for crit in (SelectionCriterion.BIC, SelectionCriterion.AIC):
            assert criterion_for(crit, v + 1, v) is crit
            explore, _ = score_with_fallback((-1.0, 10), (-2.0, 3), 11, crit)
            assert explore == score_model(-1.0, 10, 11, crit)

    def test_random_triples_match_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            L = float(rng.uniform(-1e4, 0))
            v = int(rng.integers(0, 50))
            n = int(rng.integers(v + 2, v + 500))
            crit = SelectionCriterion(rng.choice(["bic", "aic", "aicc"]))
            assert score_model(L, v, n, crit).score == pytest.approx(
                formula_oracle(L, v, n, crit), abs=1e-9
            )

    def test_monotone_in_v(self):
        rng = np.random.default_rng(23)
        for crit in SelectionCriterion:
            for _ in range(200):
                L = float(rng.uniform(-100, 0))
                n = 1000
                scores = [score_model(L, v, n, crit).score for v in range(0, 20)]
                assert all(a < b for a, b in zip(scores, scores[1:]))

    def test_decreasing_in_L(self):
        for crit in SelectionCriterion:
            lo = score_model(-10.0, 3, 50, crit).score
            hi = score_model(-5.0, 3, 50, crit).score
            assert hi < lo


class TestAcceptExploratory:
    def _score(self, value, crit=SelectionCriterion.AIC, n=10):
        return score_model(-value / 2.0, 0, n, crit)

    def test_lower_wins(self):
        assert accept_exploratory(self._score(100), self._score(120))

    def test_tie_prefers_baseline(self):
        assert not accept_exploratory(self._score(100), self._score(100))

    def test_penalty_growth_blocks_marginal_gain(self):
        # many extra parameters for a tiny likelihood gain must lose under AICc
        base = score_model(-500.0, 10, 200, SelectionCriterion.AICC)
        grown = score_model(-499.0, 100, 200, SelectionCriterion.AICC)
        assert not accept_exploratory(grown, base)

    def test_criterion_mismatch(self):
        a = score_model(-1.0, 0, 10, SelectionCriterion.AIC)
        b = score_model(-1.0, 0, 10, SelectionCriterion.BIC)
        with pytest.raises(ValueError):
            accept_exploratory(a, b)

    def test_antisymmetric(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            a = score_model(float(rng.uniform(-50, 0)), int(rng.integers(0, 5)), 100,
                            SelectionCriterion.BIC)
            b = score_model(float(rng.uniform(-50, 0)), int(rng.integers(0, 5)), 100,
                            SelectionCriterion.BIC)
            assert not (accept_exploratory(a, b) and accept_exploratory(b, a))

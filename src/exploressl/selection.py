"""Penalized-likelihood model scores (BIC/AIC/AICc) and the accept rule."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class SelectionCriterion(Enum):
    BIC = "bic"
    AIC = "aic"
    AICC = "aicc"


class AiccUndefinedError(ValueError):
    """AICc requires n > v + 1."""


@dataclass(frozen=True)
class SelectionScore:
    log_likelihood: float
    v: int
    n: int
    criterion: SelectionCriterion
    score: float  # lower is better


def score_model(L: float, v: int, n: int, criterion: SelectionCriterion) -> SelectionScore:
    """Score a fitted model: BIC = -2L + v ln n, AIC = -2L + 2v,
    AICc = AIC + 2v(v+1)/(n-v-1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if v < 0:
        raise ValueError("v must be >= 0")
    if criterion is SelectionCriterion.BIC:
        score = -2.0 * L + v * math.log(n)
    elif criterion is SelectionCriterion.AIC:
        score = -2.0 * L + 2.0 * v
    else:
        if n <= v + 1:
            raise AiccUndefinedError(f"AICc undefined for n={n}, v={v} (needs n > v+1)")
        score = -2.0 * L + 2.0 * v + 2.0 * v * (v + 1) / (n - v - 1)
    return SelectionScore(log_likelihood=L, v=v, n=n, criterion=criterion, score=score)


def criterion_for(criterion: SelectionCriterion, n: int, v: int) -> SelectionCriterion:
    """The criterion that scores models of up to v free parameters over n
    instances: AICc falls back to AIC where it is undefined (n <= v + 1), as
    text vocabularies routinely make it."""
    if criterion is SelectionCriterion.AICC and n <= v + 1:
        return SelectionCriterion.AIC
    return criterion


def score_with_fallback(
    explore: tuple[float, int], baseline: tuple[float, int], n: int,
    criterion: SelectionCriterion,
) -> tuple[SelectionScore, SelectionScore]:
    """Score the explore and baseline models, each given as (L, v), under one
    criterion, criterion_for the larger v: AICc falls back to AIC for both
    when it is undefined for either."""
    criterion = criterion_for(criterion, n, max(explore[1], baseline[1]))
    return score_model(*explore, n, criterion), score_model(*baseline, n, criterion)


def accept_exploratory(explore: SelectionScore, baseline: SelectionScore) -> bool:
    """True iff the exploratory model strictly beats the baseline; ties keep
    the simpler baseline."""
    if explore.criterion is not baseline.criterion:
        raise ValueError("scores use different selection criteria")
    if explore.n != baseline.n:
        raise ValueError("scores computed over different instance counts")
    return explore.score < baseline.score

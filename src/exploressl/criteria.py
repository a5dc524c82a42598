"""Class-creation predicates: MinMax, JS and Random.

minmax_fires and js_fires test every row of an (r, k) posterior matrix at
once, as the E-step uses them; minmax_criterion and js_criterion validate
one posterior vector and test it with the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np


class CriterionKind(Enum):
    MINMAX = "minmax"
    JS = "js"
    RANDOM = "random"


@dataclass
class CriterionConfig:
    kind: CriterionKind
    random_rate: Optional[float] = None
    rng_seed: int = 0

    def __post_init__(self):
        if self.kind is CriterionKind.RANDOM:
            if self.random_rate is None:
                raise ValueError("random criterion requires random_rate")
            if not (0.0 <= self.random_rate <= 1.0):
                raise ValueError("random_rate must be in [0, 1]")
        elif self.random_rate is not None:
            raise ValueError("random_rate only applies to the random criterion")


def _check_distribution(p: np.ndarray, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d vector")
    if np.any(p < 0):
        raise ValueError(f"{name} has negative entries")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"{name} does not sum to 1 (sum={p.sum()!r})")
    return p


def _js_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise JS divergence of two broadcastable (r, k) arrays."""
    a = 0.5 * (p + q)
    with np.errstate(divide="ignore", invalid="ignore"):
        kl_p = np.where(p > 0, p * (np.log(p) - np.log(a)), 0.0)
        kl_q = np.where(q > 0, q * (np.log(q) - np.log(a)), 0.0)
    return 0.5 * (kl_p.sum(axis=-1) + kl_q.sum(axis=-1))


def js_divergence(p, q) -> float:
    """Jensen-Shannon divergence in nats: mean KL of p and q to their average.

    0*log(0/x) terms contribute 0; the result lies in [0, ln 2].
    """
    p = _check_distribution(p, "p")
    q = _check_distribution(q, "q")
    if p.size != q.size:
        raise ValueError("p and q must have the same length")
    return float(_js_rows(p, q))


def js_fires(post: np.ndarray) -> np.ndarray:
    """Per row: is the posterior within JS distance 1/k of uniform over its k
    live classes (strict inequality)?"""
    k = post.shape[1]
    return _js_rows(np.full(k, 1.0 / k), post) < 1.0 / k


def minmax_fires(post: np.ndarray) -> np.ndarray:
    """Per row: is max/min < 2 strictly? A zero minimum never fires."""
    lo = post.min(axis=1)
    with np.errstate(divide="ignore", over="ignore"):
        ratio = post.max(axis=1) / lo
    return (lo > 0.0) & (ratio < 2.0)


def js_criterion(p) -> bool:
    """js_fires for one posterior vector."""
    return bool(js_fires(_check_distribution(p, "p")[None, :])[0])


def minmax_criterion(p) -> bool:
    """minmax_fires for one posterior vector."""
    return bool(minmax_fires(_check_distribution(p, "p")[None, :])[0])


class Criterion:
    """Stateful wrapper dispatching on CriterionConfig.

    Only the random kind carries state: an isolated RNG seeded from the
    config, so firing sequences are reproducible per engine run. It draws
    one number per instance visited, in visiting order.
    """

    def __init__(self, cfg: CriterionConfig):
        self.cfg = cfg
        self._rng = (
            np.random.default_rng(cfg.rng_seed)
            if cfg.kind is CriterionKind.RANDOM
            else None
        )

    def for_pass(self, n: int) -> Callable[[np.ndarray, int], np.ndarray]:
        """Firing test for one E-step pass over n instances: fires(post,
        start) flags the rows of post, which hold the posteriors of pass
        positions start onward. The random kind draws its n numbers here, so
        the stream does not depend on how the pass is split."""
        if self.cfg.kind is CriterionKind.MINMAX:
            return lambda post, start: minmax_fires(post)
        if self.cfg.kind is CriterionKind.JS:
            return lambda post, start: js_fires(post)
        hits = self._rng.random(n) < self.cfg.random_rate
        return lambda post, start: hits[start : start + len(post)]

    def __call__(self, posterior) -> bool:
        post = _check_distribution(posterior, "posterior")[None, :]
        return bool(self.for_pass(1)(post, 0)[0])


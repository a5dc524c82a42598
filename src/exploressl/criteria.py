"""Class-creation predicates: MinMax, JS and Random.

minmax_fires and js_fires test every column of a (k, r) class-major
posterior matrix at once, as the E-step hands them out; minmax_criterion and
js_criterion validate one posterior vector and test it with the same code.
for_pass gives an E-step pass the test a CriterionConfig names.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .models import sum_classes


class CriterionKind(Enum):
    MINMAX = "minmax"
    JS = "js"
    RANDOM = "random"


@dataclass(frozen=True)
class CriterionConfig:
    kind: CriterionKind
    random_rate: Optional[float] = None

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


def js_from_uniform(post: np.ndarray) -> np.ndarray:
    """Per column of a (k, r) class-major posterior matrix: its
    Jensen-Shannon divergence in nats from uniform over its k classes, the
    mean KL of the column and of uniform to their average, each KL added by
    models.sum_classes. The column's 0*log(0/x) terms contribute 0, and
    uniform's, at 1/k > 0, need no such guard; the result lies in [0, ln 2]."""
    u = 1.0 / post.shape[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_a = np.log(0.5 * (u + post))
        kl_u = u * (np.log(u) - log_a)
        kl_post = np.where(post > 0, post * (np.log(post) - log_a), 0.0)
    return 0.5 * (sum_classes(kl_u) + sum_classes(kl_post))


def js_fires(post: np.ndarray) -> np.ndarray:
    """Per column of a (k, r) posterior matrix: is it within JS distance 1/k
    of uniform over its k live classes (strict inequality)?"""
    return js_from_uniform(post) < 1.0 / post.shape[0]


def minmax_fires(post: np.ndarray) -> np.ndarray:
    """Per column of a (k, r) posterior matrix: is max/min < 2 strictly? A
    zero minimum never fires. Max and min are exact in any order, so each is
    taken down the class axis, k vectorised passes over the columns."""
    lo = np.minimum.reduce(post, axis=0)
    with np.errstate(divide="ignore", over="ignore"):
        ratio = np.maximum.reduce(post, axis=0) / lo
    return (lo > 0.0) & (ratio < 2.0)


def js_criterion(p) -> bool:
    """js_fires for one posterior vector."""
    return bool(js_fires(_check_distribution(p, "p")[:, None])[0])


def minmax_criterion(p) -> bool:
    """minmax_fires for one posterior vector."""
    return bool(minmax_fires(_check_distribution(p, "p")[:, None])[0])


def for_pass(
    cfg: CriterionConfig, n: int, rng: np.random.Generator
) -> Callable[[np.ndarray, int], np.ndarray]:
    """Firing test for one E-step pass over n instances: fires(post, start)
    flags the columns of the (k, r) class-major post, which hold the
    posteriors of pass positions start onward. The random kind draws its n
    numbers from rng here, one per instance in visiting order, so the stream
    does not depend on how the pass is split."""
    if cfg.kind is CriterionKind.MINMAX:
        return lambda post, start: minmax_fires(post)
    if cfg.kind is CriterionKind.JS:
        return lambda post, start: js_fires(post)
    hits = rng.random(n) < cfg.random_rate
    return lambda post, start: hits[start : start + post.shape[1]]

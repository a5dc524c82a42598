"""Seeded block-Gibbs sampler whose pick step may open a new class, either
with a constant concentration probability or with that probability scaled by
how close the instance's posterior sits to uniform."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .criteria import _check_distribution, js_from_uniform
from .data import Dataset, SeedPartition
from .engine import RunResult, _pass
from .models import (
    ModelFamily,
    data_log_likelihood,
    fit_seeds,
    init_from_seeds,  # noqa: F401 - kept as a module attribute: benchmarks/ trace it by name
    init_new_class,  # noqa: F401 - kept as a module attribute: benchmarks/ trace it by name
    m_step,
    posterior,  # noqa: F401 - kept as a module attribute: benchmarks/ trace it by name
    refit,
    sum_classes,
)


class PickRule(Enum):
    STANDARD = "standard"
    MODIFIED = "modified"


@dataclass
class CrpConfig:
    p_new: float
    num_epochs: int = 50
    pick: PickRule = PickRule.STANDARD
    family: ModelFamily = ModelFamily.KMEANS
    rng_seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.p_new < 1.0):
            raise ValueError("p_new must lie strictly between 0 and 1")
        if self.num_epochs < 1:
            raise ValueError("num_epochs must be positive")


def crp_pick_standard(
    p_new: float, post: np.ndarray, rng: np.random.Generator
) -> tuple[int, bool]:
    """With probability p_new open a new class (returned id = len(post)),
    otherwise sample an existing class id from the posterior. crp_gibbs
    draws the same for a whole chunk of rows with pick_chunk."""
    if rng.random() < p_new:
        return len(post), True
    return int(rng.choice(len(post), p=post)), False


def mod_new_class_probabilities(p_new: float, post: np.ndarray) -> np.ndarray:
    """Per column of a (k, r) class-major posterior matrix: q = p_new / (k * d),
    d = JS divergence of the column from uniform over its k classes, clamped
    to [0, 1]; a perfectly uniform column (d = 0) gives q = 1."""
    k = post.shape[0]
    d = js_from_uniform(post)
    with np.errstate(divide="ignore"):
        return np.where(d == 0.0, 1.0, np.minimum(1.0, p_new / (k * d)))


def mod_crp_pick(
    p_new: float, post: np.ndarray, rng: np.random.Generator
) -> tuple[int, bool]:
    """New-class coin with bias from mod_new_class_probabilities; tails
    samples an existing class from the posterior."""
    k = len(post)
    q = mod_new_class_probabilities(p_new, _check_distribution(post, "posterior")[:, None])[0]
    if rng.random() < q:
        return k, True
    return int(rng.choice(k, p=post)), False


# how far a row's sum may stray from 1, as the per-row pick checked it:
# rng.choice's tolerance under the standard rule, and _check_distribution's
# under the modified rule
SUM_TOLERANCE = {PickRule.STANDARD: float(np.sqrt(np.finfo(np.float64).eps)),
                 PickRule.MODIFIED: 1e-9}


def pick_chunk(
    rule: PickRule, p_new: float, post: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, bool]:
    """The pick step for the columns of a (k, r) class-major posterior chunk
    in order, drawing from rng exactly what a loop of crp_pick_standard or
    mod_crp_pick over the columns would draw until one of them opens a class.

    Returns the labels of the columns before the first one that opens a
    class, and whether one opens (the column after those labels). Each
    column costs a coin against its new-class probability and, on tails, the
    one uniform that rng.choice compares with the column's normalised
    cumulative sum. Its sum (models.sum_classes) and cumulative sum add the
    classes in the order np.sum and np.cumsum add a row's."""
    if not np.all(post >= 0.0):
        raise ValueError("posterior has negative or NaN entries")
    if np.any(np.abs(sum_classes(post) - 1.0) > SUM_TOLERANCE[rule]):
        raise ValueError("posterior columns do not sum to 1")
    q = p_new if rule is PickRule.STANDARD else mod_new_class_probabilities(p_new, post)
    start_state = rng.bit_generator.state
    coins, uniforms = rng.random((post.shape[1], 2)).T
    opens = np.flatnonzero(coins < q)
    stop = opens[0] if len(opens) else post.shape[1]
    if len(opens):
        # rewind to leave the stream where the opening column's coin left it
        rng.bit_generator.state = start_state
        rng.random(2 * stop + 1)
    cdf = _cumsum_classes(post[:, :stop])
    cdf /= cdf[-1]
    return (cdf <= uniforms[:stop]).sum(axis=0), len(opens) > 0


def _cumsum_classes(a: np.ndarray) -> np.ndarray:
    """np.cumsum(a, axis=0), a new array: each column's running sums in
    class order. np.cumsum runs its inner loop once per column, so an array
    with more columns than classes is summed by one vectorised add per
    class instead, which adds the same terms in the same order."""
    m, r = a.shape
    if m > r:
        return np.cumsum(a.T, axis=1).T
    out = a.copy(order="K")
    for j in range(1, m):
        out[j] += out[j - 1]
    return out


def crp_gibbs(d: Dataset, p: SeedPartition, cfg: CrpConfig) -> RunResult:
    """Seeded Gibbs sampling over unlabeled labels with on-the-fly class
    creation. Parameters are refreshed once per epoch (block style), so an
    epoch's posteriors change only when a class opens; the last epoch's
    labels are the output."""
    p.validate(d)
    unlabeled = p.unlabeled_idx
    rng = np.random.default_rng(np.random.SeedSequence([cfg.rng_seed, 11]))

    # random seeded-class start for the unlabeled pool, fitted from the
    # seed fit's assignments without the seed fit's scores
    seeded = p.seeded_class_ids.tolist()
    vectors, _, _, assignments = fit_seeds(d, p, cfg.family)
    assignments[unlabeled] = rng.integers(len(seeded), size=len(unlabeled))
    state = refit(cfg.family, d, assignments, seeded, vectors)

    ll_trace: list[float] = []
    class_trace: list[int] = []

    for epoch in range(1, cfg.num_epochs + 1):
        def pick(post: np.ndarray, start: int) -> tuple[np.ndarray, bool]:
            if not np.all(np.isfinite(post)):
                raise FloatingPointError(f"non-finite posterior at epoch {epoch}")
            return pick_chunk(cfg.pick, cfg.p_new, post, rng)

        _pass(state, d, unlabeled, pick)
        # refresh parameters and prune emptied introduced classes
        state = m_step(state, d)
        ll_trace.append(data_log_likelihood(state))
        class_trace.append(state.num_classes)

    return RunResult(
        final_state=state,
        iterations_run=cfg.num_epochs,
        ll_trace=ll_trace,
        class_count_trace=class_trace,
        can_add_latched_at=None,
    )

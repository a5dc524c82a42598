"""Seeded block-Gibbs sampler whose pick step may open a new class, either
with a constant concentration probability or with that probability scaled by
how close the instance's posterior sits to uniform."""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .criteria import js_divergence
from .data import Dataset, SeedPartition
from .engine import RunResult
from .models import (
    ModelFamily,
    PassScores,
    data_log_likelihood,
    init_from_seeds,
    init_new_class,
    m_step,
    posterior,  # noqa: F401 - kept as a module attribute: benchmarks/ trace it by name
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
    burn_in: int = 0
    kappa_init: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.p_new < 1.0):
            raise ValueError("p_new must lie strictly between 0 and 1")
        if self.num_epochs < 1:
            raise ValueError("num_epochs must be positive")
        if not (0 <= self.burn_in < self.num_epochs):
            raise ValueError("burn_in must be in [0, num_epochs)")


def crp_pick_standard(
    p_new: float, post: np.ndarray, rng: np.random.Generator
) -> tuple[int, bool]:
    """With probability p_new open a new class (returned id = len(post)),
    otherwise sample an existing class id from the posterior."""
    if rng.random() < p_new:
        return len(post), True
    return int(rng.choice(len(post), p=post)), False


def mod_new_class_probability(p_new: float, post: np.ndarray) -> float:
    """q = p_new / (k * d), d = JS divergence of the posterior from uniform
    over its k classes, clamped to [0, 1]; a perfectly uniform posterior
    (d = 0) gives q = 1."""
    k = len(post)
    u = np.full(k, 1.0 / k)
    d = js_divergence(u, post)
    return 1.0 if d == 0.0 else min(1.0, p_new / (k * d))


def mod_crp_pick(
    p_new: float, post: np.ndarray, rng: np.random.Generator
) -> tuple[int, bool]:
    """New-class coin with bias from mod_new_class_probability; tails samples
    an existing class from the posterior."""
    k = len(post)
    q = mod_new_class_probability(p_new, post)
    if rng.random() < q:
        return k, True
    return int(rng.choice(k, p=post)), False


def crp_gibbs(d: Dataset, p: SeedPartition, cfg: CrpConfig) -> RunResult:
    """Seeded Gibbs sampling over unlabeled labels with on-the-fly class
    creation. Parameters are refreshed once per epoch (block style), so an
    epoch's posteriors change only when a class opens; the last epoch's
    labels are the output."""
    t_start = time.perf_counter()
    p.validate(d)
    n = len(d)
    unlabeled = np.array(sorted(p.unlabeled_idx), dtype=np.int64)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.rng_seed, 11]))

    state = init_from_seeds(d, p, cfg.family, cfg.kappa_init)
    k = state.num_classes
    # random seeded-class start for the unlabeled pool
    for i in unlabeled:
        state.assignments[i] = rng.integers(k)
    state = m_step(state, d)

    pick = crp_pick_standard if cfg.pick is PickRule.STANDARD else mod_crp_pick
    ll_trace: list[float] = []
    class_trace: list[int] = []

    for epoch in range(1, cfg.num_epochs + 1):
        scores = PassScores(state, d, unlabeled)
        start = 0
        while start < len(unlabeled):
            post = scores.posteriors(state, start)
            if not np.all(np.isfinite(post)):
                raise FloatingPointError(f"non-finite posterior at epoch {epoch}")
            for row in post:
                i = unlabeled[start]
                label, created = pick(cfg.p_new, row, rng)
                if created:
                    params = init_new_class(d.instances[i], cfg.family, d.vocab_size, cfg.kappa_init)
                    label = state.add_class(params, n)
                    scores.add_class(state, start)
                state.assignments[i] = label
                start += 1
                if created:
                    break  # the rows after it must see the new class
        # refresh parameters and prune emptied introduced classes
        state = m_step(state, d)
        ll_trace.append(data_log_likelihood(state, d))
        class_trace.append(state.num_classes)

    return RunResult(
        final_state=state,
        iterations_run=cfg.num_epochs,
        ll_trace=ll_trace,
        class_count_trace=class_trace,
        can_add_latched_at=None,
        wall_time=time.perf_counter() - t_start,
    )

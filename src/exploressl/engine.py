"""Hard-EM drivers: the exploratory variant that can create classes during
the E-step (gated by penalized model selection), and the plain
semi-supervised baseline with optional extra randomly-initialized classes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .criteria import CriterionConfig, CriterionKind, for_pass, js_fires, minmax_fires
from .data import Dataset, SeedPartition
from .models import (
    ModelFamily,
    ModelState,
    PassScores,
    class_major,
    data_log_likelihood,
    free_parameter_count,
    init_from_seeds,
    init_new_class,
    logits,
    m_step,
    posterior,  # noqa: F401 - kept as a module attribute: benchmarks/ trace it by name
    posteriors,
)
from .selection import SelectionCriterion, accept_exploratory, score_model, score_with_fallback

log = logging.getLogger(__name__)


@dataclass
class EngineConfig:
    family: ModelFamily
    criterion: Optional[CriterionConfig] = None
    selection: SelectionCriterion = SelectionCriterion.AICC
    max_iterations: int = 15
    ll_rel_tolerance: float = 1e-4
    extra_classes: int = 0
    rng_seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.ll_rel_tolerance <= 0:
            raise ValueError("ll_rel_tolerance must be positive")
        if self.extra_classes < 0:
            raise ValueError("extra_classes must be non-negative")


@dataclass
class RunResult:
    final_state: ModelState
    iterations_run: int
    ll_trace: list[float] = field(default_factory=list)
    class_count_trace: list[int] = field(default_factory=list)
    can_add_latched_at: Optional[int] = None


def _pass(
    state: ModelState, d: Dataset, rows: np.ndarray,
    pick: Callable[[np.ndarray, int], tuple[np.ndarray, bool]],
) -> None:
    """One sequential pass over `rows` in which each row takes a class or
    opens a new one seeded by itself.

    pick(post, start) gets the posteriors of pass positions start onward,
    one column each (PassScores), and returns the labels of the leading
    positions and whether the one after them opens a class. The rows after
    an opening are scored again with the new class and the rescaled priors,
    so each row sees the model exactly as a one-at-a-time pass would leave
    it.
    """
    batch = PassScores(rows)
    start = 0
    while start < len(rows):
        labels, opens = pick(batch.posteriors(state, start), start)
        stop = start + len(labels)
        state.assignments[rows[start:stop]] = labels
        if opens:
            i = rows[stop]
            state.assignments[i] = state.add_class(init_new_class(d, i, state.family))
            batch.add_class(stop)
            stop += 1
        start = stop


def _e_step(
    state: ModelState, d: Dataset, rows: np.ndarray,
    fires: Optional[Callable[[np.ndarray, int], np.ndarray]] = None,
) -> int:
    """Hard E-step over `rows` in order; returns how many assignments changed.

    Without `fires` no class can open, so every row takes its MAP class from
    one argmax over the logits of its scores (models.logits), with no
    chunking. With it, the rows go through _pass, and the first column it
    flags in a chunk opens a new class.
    """
    before = state.assignments[rows]
    if fires is None:
        labels = logits(state, state.scores[rows].T).argmax(axis=0)
        state.assignments[rows] = labels
        return int(np.count_nonzero(labels != before))

    def pick(post: np.ndarray, start: int) -> tuple[np.ndarray, bool]:
        hits = np.flatnonzero(fires(post, start))
        stop = hits[0] if len(hits) else post.shape[1]
        return post[:, :stop].argmax(axis=0), len(hits) > 0

    _pass(state, d, rows, pick)
    # each row is visited once, and a row that opens a class always changes
    return int(np.count_nonzero(state.assignments[rows] != before))


def _run_em(
    d: Dataset, p: SeedPartition, cfg: EngineConfig, criterion: Optional[CriterionConfig]
) -> RunResult:
    """Hard EM from the seeded classes; a criterion, if given, may open
    classes during the E-step until the selection gate first rejects. The
    random criterion's coins come from one stream seeded by cfg.rng_seed."""
    p.validate(d)
    n = len(d)
    unlabeled = p.unlabeled_idx

    state = init_from_seeds(d, p, cfg.family)

    if cfg.extra_classes:
        if cfg.extra_classes > len(unlabeled):
            raise ValueError("extra_classes exceeds the number of unlabeled instances")
        rng = np.random.default_rng(np.random.SeedSequence([cfg.rng_seed, 7]))
        picked = rng.choice(len(unlabeled), size=cfg.extra_classes, replace=False)
        for pos in picked:
            state.add_class(init_new_class(d, unlabeled[pos], cfg.family))

    if state.num_classes == 0:
        # no seeded classes at all: bootstrap one class from the first
        # unlabeled instance so the run proceeds as plain clustering
        if criterion is None or not len(unlabeled):
            raise ValueError("no seeded classes and no way to create any")
        first = unlabeled[0]
        state.add_class(init_new_class(d, first, cfg.family))
        state.assignments[first] = 0

    # initial hard labels for the unlabeled pool, so the first baseline
    # likelihood is well defined
    _e_step(state, d, unlabeled)
    ll = data_log_likelihood(state)

    latched_at: Optional[int] = None  # the iteration whose gate first rejected
    ll_trace: list[float] = []
    class_trace: list[int] = []
    aic_fallback_logged = False
    coins = np.random.default_rng(cfg.rng_seed)

    iterations = 0
    for t in range(1, cfg.max_iterations + 1):
        iterations = t
        m_old = state.num_classes
        v_old = free_parameter_count(state)
        # the state is unchanged since the likelihood of the last M-step
        baseline_ll = ll

        creating = criterion is not None and latched_at is None
        fires = for_pass(criterion, len(unlabeled), coins) if creating else None
        changed = _e_step(state, d, unlabeled, fires)

        m_new = state.num_classes
        explore_ll = data_log_likelihood(state)
        if not (np.isfinite(baseline_ll) and np.isfinite(explore_ll)):
            raise FloatingPointError(f"non-finite likelihood at iteration {t}")

        explore, baseline = score_with_fallback(
            (explore_ll, free_parameter_count(state)), (baseline_ll, v_old), n, cfg.selection)
        # only a pass that could open a class makes a gate decision
        if creating and explore.criterion is not cfg.selection and not aic_fallback_logged:
            log.warning("AICc undefined (n=%d <= v+1=%d); the selection gate uses AIC",
                        n, max(explore.v, baseline.v) + 1)
            aic_fallback_logged = True

        if not accept_exploratory(explore, baseline):
            if m_new > m_old:
                state.truncate(m_old)
                dropped = unlabeled[state.assignments[unlabeled] >= m_old]
                _e_step(state, d, dropped)
            if creating:
                latched_at = t

        if t > 1 and changed == 0 and m_new == m_old:
            # from t = 2 the state is the last M-step's, and an M-step on
            # the same assignments would give it back bit for bit
            ll_trace.append(ll)
            class_trace.append(m_old)
            break
        state = m_step(state, d)
        ll = data_log_likelihood(state)
        m_now = state.num_classes
        ll_trace.append(ll)
        class_trace.append(m_now)

        if m_now != m_old:
            continue
        if changed == 0:
            break
        # from t = 2 the gate's baseline is the previous fitted model: stop
        # when this one scores within tolerance of it, under the same criterion
        fitted = score_model(ll, v_old, n, baseline.criterion).score
        tolerance = cfg.ll_rel_tolerance * max(abs(baseline.score), 1.0)
        if t > 1 and abs(fitted - baseline.score) < tolerance:
            break

    return RunResult(
        final_state=state,
        iterations_run=iterations,
        ll_trace=ll_trace,
        class_count_trace=class_trace,
        can_add_latched_at=latched_at,
    )


def exploratory_em(d: Dataset, p: SeedPartition, cfg: EngineConfig) -> RunResult:
    """EM that may create a class per hard-to-classify instance during the
    E-step; a penalized-likelihood gate compares the grown model against the
    pre-E-step one and permanently disables creation on first rejection."""
    if cfg.extra_classes != 0:
        raise ValueError("exploratory mode requires extra_classes = 0")
    if cfg.criterion is None:
        raise ValueError("exploratory mode requires a class-creation criterion")
    return _run_em(d, p, cfg, cfg.criterion)


def semisup_em(d: Dataset, p: SeedPartition, cfg: EngineConfig) -> RunResult:
    """Standard classification EM over the seeded classes plus
    cfg.extra_classes classes initialized from random unlabeled instances."""
    return _run_em(d, p, cfg, None)


def calibrate_random_rate(
    d: Dataset,
    p: SeedPartition,
    family: ModelFamily,
    reference: CriterionKind = CriterionKind.MINMAX,
) -> float:
    """Empirical firing rate of a reference criterion over one pass of the
    seed-initialized model's posteriors; used to parameterize the random
    criterion for the same partition."""
    if reference is CriterionKind.RANDOM:
        raise ValueError("reference must be minmax or js")
    ref = minmax_fires if reference is CriterionKind.MINMAX else js_fires
    state = init_from_seeds(d, p, family)
    unlabeled = p.unlabeled_idx
    if not len(unlabeled):
        return 0.0
    post = posteriors(state, class_major(state.scores, unlabeled))
    return int(np.count_nonzero(ref(post))) / len(unlabeled)

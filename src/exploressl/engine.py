"""Hard-EM drivers: the exploratory variant that can create classes during
the E-step (gated by penalized model selection), and the plain
semi-supervised baseline with optional extra randomly-initialized classes.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .criteria import (
    Criterion,
    CriterionConfig,
    CriterionKind,
    js_fires,
    minmax_fires,
)
from .data import Dataset, SeedPartition
from .models import (
    ModelFamily,
    ModelState,
    PassScores,
    data_log_likelihood,
    free_parameter_count,
    init_from_seeds,
    init_new_class,
    m_step,
    posterior,  # noqa: F401 - kept as a module attribute: benchmarks/ trace it by name
    posteriors,
)
from .selection import SelectionCriterion, accept_exploratory, score_with_fallback

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
    kappa_init: float = 1.0

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
    wall_time: float = 0.0


def _pass(
    state: ModelState, d: Dataset, rows: np.ndarray, base: np.ndarray, kappa_init: float,
    pick: Callable[[np.ndarray, int], tuple[np.ndarray, bool]],
) -> None:
    """One sequential pass over `rows` in which each row takes a class or
    opens a new one seeded by itself.

    base is X @ vectors.T under the state's current parameters (PassScores).
    pick(post, start) gets the posteriors of pass positions start onward and
    returns the labels of the leading rows and whether the row after them
    opens a class. The rows after an opening are scored again with the new
    class and the rescaled priors, so each row sees the model exactly as a
    one-at-a-time pass would leave it.
    """
    batch = PassScores(state, d, rows, base)
    start = 0
    while start < len(rows):
        labels, opens = pick(batch.posteriors(state, start), start)
        stop = start + len(labels)
        state.assignments[rows[start:stop]] = labels
        if opens:
            i = rows[stop]
            params = init_new_class(d.row(i), state.family, d.vocab_size, kappa_init)
            state.assignments[i] = state.add_class(params, len(d))
            batch.add_class(state, stop)
            stop += 1
        start = stop


def _e_step(
    state: ModelState, d: Dataset, rows: np.ndarray, base: np.ndarray, kappa_init: float,
    fires: Optional[Callable[[np.ndarray, int], np.ndarray]] = None,
) -> int:
    """Hard E-step over `rows` in order; returns how many assignments changed.

    Without `fires` every row takes its argmax class. With it, the first row
    it flags in a chunk opens a new class (_pass).
    """
    before = state.assignments[rows]

    def pick(post: np.ndarray, start: int) -> tuple[np.ndarray, bool]:
        hits = np.flatnonzero(fires(post, start)) if fires is not None else ()
        stop = hits[0] if len(hits) else len(post)
        return post[:stop].argmax(axis=1), len(hits) > 0

    _pass(state, d, rows, base, kappa_init, pick)
    # each row is visited once, and a row that opens a class always changes
    return int(np.count_nonzero(state.assignments[rows] != before))


def _run_em(
    d: Dataset, p: SeedPartition, cfg: EngineConfig, criterion: Optional[Criterion]
) -> RunResult:
    """Hard EM from the seeded classes; a criterion, if given, may open
    classes during the E-step until the selection gate first rejects."""
    t_start = time.perf_counter()
    p.validate(d)
    n = len(d)
    unlabeled = np.array(sorted(p.unlabeled_idx), dtype=np.int64)

    state = init_from_seeds(d, p, cfg.family)

    if cfg.extra_classes:
        if cfg.extra_classes > len(unlabeled):
            raise ValueError("extra_classes exceeds the number of unlabeled instances")
        rng = np.random.default_rng(np.random.SeedSequence([cfg.rng_seed, 7]))
        picked = rng.choice(len(unlabeled), size=cfg.extra_classes, replace=False)
        for pos in picked:
            x = d.row(unlabeled[pos])
            state.add_class(init_new_class(x, cfg.family, d.vocab_size, cfg.kappa_init), n)

    if state.num_classes == 0:
        # no seeded classes at all: bootstrap one class from the first
        # unlabeled instance so the run proceeds as plain clustering
        if criterion is None or not len(unlabeled):
            raise ValueError("no seeded classes and no way to create any")
        first = unlabeled[0]
        state.add_class(
            init_new_class(d.row(first), cfg.family, d.vocab_size, cfg.kappa_init),
            n,
        )
        state.assignments[first] = 0

    # every row's scores under the current parameters, computed once per
    # parameter update and read by each E-step pass and likelihood until the
    # next M-step; a class opened since is scored on its own
    X = d.matrix()
    scores = X @ state.vectors.T
    # initial hard labels for the unlabeled pool, so the first baseline
    # likelihood is well defined
    _e_step(state, d, unlabeled, scores, cfg.kappa_init)
    ll = data_log_likelihood(state, d, scores)

    can_add = criterion is not None
    latched_at: Optional[int] = None
    ll_trace: list[float] = []
    class_trace: list[int] = []
    prev_score: Optional[float] = None
    prev_m: Optional[int] = None
    aic_fallback_logged = False

    iterations = 0
    for t in range(1, cfg.max_iterations + 1):
        iterations = t
        m_old = state.num_classes
        v_old = free_parameter_count(state)
        # the state is unchanged since the likelihood of the last M-step
        baseline_ll = ll

        fires = criterion.for_pass(len(unlabeled)) if can_add else None
        changed = _e_step(state, d, unlabeled, scores, cfg.kappa_init, fires)

        m_new = state.num_classes
        explore_ll = data_log_likelihood(state, d, scores)
        if not (np.isfinite(baseline_ll) and np.isfinite(explore_ll)):
            raise FloatingPointError(f"non-finite likelihood at iteration {t}")

        v_new = free_parameter_count(state)
        sel = cfg.selection
        if sel is SelectionCriterion.AICC and n <= max(v_old, v_new) + 1:
            # both gate scores must use one criterion, so the engine falls
            # back here rather than per score in score_with_fallback
            sel = SelectionCriterion.AIC
            if not aic_fallback_logged:
                log.warning(
                    "AICc undefined (n=%d <= v+1=%d); the selection gate uses AIC",
                    n, max(v_old, v_new) + 1,
                )
                aic_fallback_logged = True
        explore_score = score_with_fallback(explore_ll, v_new, n, sel)
        baseline_score = score_with_fallback(baseline_ll, v_old, n, sel)

        if not accept_exploratory(explore_score, baseline_score):
            if m_new > m_old:
                state.truncate(m_old)  # leaves exactly the classes scores covers
                dropped = unlabeled[state.assignments[unlabeled] >= m_old]
                _e_step(state, d, dropped, scores, cfg.kappa_init)
            if can_add and latched_at is None:
                latched_at = t
            can_add = False

        state = m_step(state, d)
        scores = X @ state.vectors.T
        ll = data_log_likelihood(state, d, scores)
        m_now = state.num_classes
        ll_trace.append(ll)
        class_trace.append(m_now)

        score_now = score_with_fallback(ll, free_parameter_count(state), n, sel).score
        if changed == 0 and m_now == m_old:
            break
        if (
            prev_score is not None
            and prev_m == m_now
            and abs(score_now - prev_score) < cfg.ll_rel_tolerance * max(abs(prev_score), 1.0)
        ):
            break
        prev_score, prev_m = score_now, m_now

    return RunResult(
        final_state=state,
        iterations_run=iterations,
        ll_trace=ll_trace,
        class_count_trace=class_trace,
        can_add_latched_at=latched_at,
        wall_time=time.perf_counter() - t_start,
    )


def exploratory_em(d: Dataset, p: SeedPartition, cfg: EngineConfig) -> RunResult:
    """EM that may create a class per hard-to-classify instance during the
    E-step; a penalized-likelihood gate compares the grown model against the
    pre-E-step one and permanently disables creation on first rejection."""
    if cfg.extra_classes != 0:
        raise ValueError("exploratory mode requires extra_classes = 0")
    crit_cfg = cfg.criterion
    if crit_cfg is None:
        raise ValueError("exploratory mode requires a class-creation criterion")
    if crit_cfg.kind is CriterionKind.RANDOM and crit_cfg.random_rate is None:
        raise ValueError("random criterion must be calibrated (random_rate set)")
    return _run_em(d, p, cfg, Criterion(crit_cfg))


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
    unlabeled = np.array(sorted(p.unlabeled_idx), dtype=np.int64)
    if not len(unlabeled):
        return 0.0
    post = posteriors(state, (d.matrix() @ state.vectors.T)[unlabeled])
    return int(np.count_nonzero(ref(post))) / len(unlabeled)


def best_extra_classes_sweep(
    d: Dataset,
    p: SeedPartition,
    cfg: EngineConfig,
    m_values: list[int],
) -> tuple[int, float, list[dict]]:
    """Oracle sweep over extra-class counts: run the baseline per m and pick
    the m maximizing seed-class macro F1 (ties to the smaller m). Uses test
    labels, so it is an upper bound, not a practical method."""
    from .evaluation import seed_macro_f1

    if not m_values:
        raise ValueError("m_values must be non-empty")
    rows = []
    best_m, best_f1 = None, -1.0
    for m in m_values:
        result = semisup_em(d, p, replace(cfg, extra_classes=m, criterion=None))
        eval_idx = [i for i in sorted(p.unlabeled_idx) if d.gold_labels[i] is not None]
        f1 = seed_macro_f1(
            [int(result.final_state.assignments[i]) for i in eval_idx],
            [d.gold_labels[i] for i in eval_idx],
            p.seeded_class_ids,
        )
        rows.append(
            {
                "extra_classes": m,
                "seed_macro_f1": f1,
                "clusters": result.final_state.num_classes,
                "iterations": result.iterations_run,
            }
        )
        if f1 > best_f1:
            best_m, best_f1 = m, f1
    return best_m, best_f1, rows

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

E_STEP_CHUNK = 512  # a pass's first chunk is twice this long (see _pass)


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
    state: ModelState, rows: np.ndarray,
    pick: Callable[[np.ndarray, int], tuple[np.ndarray, bool]],
) -> None:
    """One sequential pass over `rows` in which each row takes a class or
    opens a new one seeded by itself.

    pick(post, start) gets the posteriors of the chunk of pass positions
    from start on, class-major (models.class_major), and returns the labels
    of the leading positions and whether the one after them opens a class.
    The rows after an opening are scored again with the new class and the
    rescaled priors, so each row sees the model exactly as a one-at-a-time
    pass would leave it. A chunk from start is max(2 (start - opened), gap)
    long, opened the position of the last opening (the first counts from
    -E_STEP_CHUNK) and gap the distance between the last two: README § Model
    fitting gives the rule and its bound of 4n + 3 E_STEP_CHUNK rows'
    posteriors per pass over n rows.
    """
    start, opened, gap = 0, -E_STEP_CHUNK, 0
    while start < len(rows):
        chunk = rows[start : start + max(2 * (start - opened), gap)]
        labels, opens = pick(posteriors(state, class_major(state.scores, chunk)), start)
        stop = start + len(labels)
        state.assignments[rows[start:stop]] = labels
        if opens:
            i = rows[stop]
            state.assignments[i] = state.add_class(init_new_class(state.X, i, state.family))
            opened, gap = stop, stop - opened
            stop += 1
        start = stop


def _e_step(
    state: ModelState, rows: np.ndarray,
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

    _pass(state, rows, pick)
    # each row is visited once, and a row that opens a class always changes
    return int(np.count_nonzero(state.assignments[rows] != before))


@dataclass(frozen=True)
class SeedStart:
    """Where every run on one dataset, partition and family without extra
    classes begins: the seed fit after one E-step over the unlabeled rows,
    and its log-likelihood. A run given a start works on a fork of its state
    (ModelState.fork), so one start serves any number of runs with unchanged
    results.

    fits maps the assignments an M-step of those runs refit, as bytes, to
    the fitted state and its log-likelihood, so a later run that reaches the
    same assignments forks the fit in place of computing it again (_fit).
    steps maps the key of a fit in fits to the plain E-step first made from
    it: the labels of the unlabeled rows, how many changed, and the
    log-likelihood after it, so a run on the fit that cannot open a class
    replays the E-step in place of making it (_run_em). Both tables live as
    long as the start."""

    state: ModelState
    ll: float
    partition: SeedPartition
    fits: dict[bytes, tuple[ModelState, float]] = field(default_factory=dict, repr=False)
    steps: dict[bytes, tuple[np.ndarray, int, float]] = field(default_factory=dict, repr=False)


def seed_start(d: Dataset, p: SeedPartition, family: ModelFamily) -> SeedStart:
    """The start that exploratory_em, semisup_em without extra classes and
    calibrate_random_rate take as `start=` for d, p and family, which they
    would otherwise build themselves; it serves any number of runs with
    unchanged results. p must seed at least one class."""
    return _begin(d, p, EngineConfig(family), None)


def _begin(
    d: Dataset, p: SeedPartition, cfg: EngineConfig, criterion: Optional[CriterionConfig]
) -> SeedStart:
    """The start of a run given none: the seed fit plus cfg.extra_classes
    classes opened at random unlabeled rows, or, with no seeded class and a
    criterion, one class opened at the first unlabeled row."""
    p.validate(d)
    unlabeled = p.unlabeled_idx
    state = init_from_seeds(d, p, cfg.family)

    if cfg.extra_classes:
        if cfg.extra_classes > len(unlabeled):
            raise ValueError("extra_classes exceeds the number of unlabeled instances")
        rng = np.random.default_rng(np.random.SeedSequence([cfg.rng_seed, 7]))
        picked = rng.choice(len(unlabeled), size=cfg.extra_classes, replace=False)
        for pos in picked:
            state.add_class(init_new_class(state.X, unlabeled[pos], cfg.family))

    if state.num_classes == 0:
        # no seeded classes at all: bootstrap one class from the first
        # unlabeled instance so the run proceeds as plain clustering
        if criterion is None or not len(unlabeled):
            raise ValueError("no seeded classes and no way to create any")
        first = unlabeled[0]
        state.add_class(init_new_class(state.X, first, cfg.family))
        state.assignments[first] = 0

    # initial hard labels for the unlabeled pool, so the first baseline
    # likelihood is well defined
    _e_step(state, unlabeled)
    return SeedStart(state, data_log_likelihood(state), p)


def _check_start(start: SeedStart, d: Dataset, p: SeedPartition, family: ModelFamily) -> None:
    if start.partition is not p or start.state.X is not d.matrix() \
            or start.state.family is not family:
        raise ValueError("start is not seed_start of this dataset, partition and family")


def _fit(
    state: ModelState, fits: Optional[dict[bytes, tuple[ModelState, float]]],
    key: Optional[bytes] = None,
) -> tuple[ModelState, float]:
    """m_step(state) and the log-likelihood of the result.

    With a table (SeedStart.fits) the M-step is looked up by the state's
    assignments first, as bytes (key, if the caller has made it): a fit made
    from the same ones is forked, with its likelihood, in place of computing
    both again. A fit is kept only if it read no old vector
    (ModelState.kept_old_vector), since only then is it a function of the
    assignments alone on the start's rows, family and seeded classes. On a
    hit the caller drops the argument, as m_step would have dropped its
    scores and spare room."""
    if fits is not None and key is None:
        key = state.assignments.tobytes()
    if key is not None and key in fits:
        kept, ll = fits[key]
        return kept.fork(), ll
    state = m_step(state)
    ll = data_log_likelihood(state)
    if key is not None and not state.kept_old_vector:
        fits[key] = state.fork(), ll
    return state, ll


def _run_em(
    d: Dataset, p: SeedPartition, cfg: EngineConfig, criterion: Optional[CriterionConfig],
    start: Optional[SeedStart] = None,
) -> RunResult:
    """Hard EM from the seeded classes; a criterion, if given, may open
    classes during the E-step until the selection gate first rejects. The
    random criterion's coins come from one stream seeded by cfg.rng_seed.
    A start (seed_start of d, p and cfg.family) takes the place of the seed
    fit and first E-step of a run without extra classes, and the fits and
    E-steps in its tables take the place of those that earlier runs on it
    already made.

    A pass that cannot open a class is a function of the state alone. So
    the pass of iteration 1 gives the start's state back, which is the
    result of such a pass, with the start's likelihood; and from a fit in
    the start's table, the pass is replayed from SeedStart.steps."""
    fits = steps = None  # a run that builds its start keeps no tables
    if start is None:
        start = _begin(d, p, cfg, criterion)
    elif cfg.extra_classes:
        raise ValueError("a run with extra classes takes no seed start")
    else:
        _check_start(start, d, p, cfg.family)
        fits, steps = start.fits, start.steps
    n = len(d)
    unlabeled = p.unlabeled_idx
    state, ll = start.state.fork(), start.ll
    del start  # one built here is freed with the fork's first M-step

    latched_at: Optional[int] = None  # the iteration whose gate first rejected
    ll_trace: list[float] = []
    class_trace: list[int] = []
    aic_fallback_logged = False
    coins = np.random.default_rng(cfg.rng_seed)

    iterations = 0
    key = None  # the assignments the last M-step refit, as bytes, in a run with a table
    for t in range(1, cfg.max_iterations + 1):
        iterations = t
        m_old = state.num_classes
        v_old = free_parameter_count(state)
        # the state is unchanged since the likelihood of the last M-step
        baseline_ll = ll

        creating = criterion is not None and latched_at is None
        if creating:
            changed = _e_step(state, unlabeled, for_pass(criterion, len(unlabeled), coins))
            explore_ll = data_log_likelihood(state)
        elif t == 1:
            changed, explore_ll = 0, ll  # the start's state is a plain E-step's own result
        elif steps is not None and key in steps:
            labels, changed, explore_ll = steps[key]
            state.assignments[unlabeled] = labels
        else:
            changed = _e_step(state, unlabeled)
            explore_ll = data_log_likelihood(state)
            if fits is not None and key in fits:
                steps[key] = state.assignments[unlabeled], changed, explore_ll

        m_new = state.num_classes
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
                _e_step(state, dropped)
            if creating:
                latched_at = t

        if t > 1 and changed == 0 and m_new == m_old:
            # from t = 2 the state is the last M-step's, and an M-step on
            # the same assignments would give it back bit for bit
            ll_trace.append(ll)
            class_trace.append(m_old)
            break
        key = None if fits is None else state.assignments.tobytes()
        state, ll = _fit(state, fits, key)
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


def exploratory_em(
    d: Dataset, p: SeedPartition, cfg: EngineConfig, *, start: Optional[SeedStart] = None
) -> RunResult:
    """EM that may create a class per hard-to-classify instance during the
    E-step; a penalized-likelihood gate compares the grown model against the
    pre-E-step one and permanently disables creation on first rejection.
    A start from seed_start(d, p, cfg.family) changes no result."""
    if cfg.extra_classes != 0:
        raise ValueError("exploratory mode requires extra_classes = 0")
    if cfg.criterion is None:
        raise ValueError("exploratory mode requires a class-creation criterion")
    return _run_em(d, p, cfg, cfg.criterion, start)


def semisup_em(
    d: Dataset, p: SeedPartition, cfg: EngineConfig, *, start: Optional[SeedStart] = None
) -> RunResult:
    """Standard classification EM over the seeded classes plus
    cfg.extra_classes classes initialized from random unlabeled instances.
    Without extra classes, a start from seed_start(d, p, cfg.family) changes
    no result."""
    return _run_em(d, p, cfg, None, start)


def calibrate_random_rate(
    d: Dataset,
    p: SeedPartition,
    family: ModelFamily,
    reference: CriterionKind = CriterionKind.MINMAX,
    *,
    start: Optional[SeedStart] = None,
) -> float:
    """Empirical firing rate of a reference criterion over one pass of the
    seed-initialized model's posteriors; used to parameterize the random
    criterion for the same partition. The posteriors are read from the
    scores of a start from seed_start(d, p, family), if given, which its
    E-step left as the seed fit's."""
    if reference is CriterionKind.RANDOM:
        raise ValueError("reference must be minmax or js")
    ref = minmax_fires if reference is CriterionKind.MINMAX else js_fires
    if start is None:
        state = init_from_seeds(d, p, family)
    else:
        _check_start(start, d, p, family)
        state = start.state
    unlabeled = p.unlabeled_idx
    if not len(unlabeled):
        return 0.0
    post = posteriors(state, class_major(state.scores, unlabeled))
    return int(np.count_nonzero(ref(post))) / len(unlabeled)

"""Hard-EM drivers: the exploratory variant that can create classes during
the E-step (gated by penalized model selection), and the plain
semi-supervised baseline with optional extra randomly-initialized classes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
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
from .selection import (SelectionCriterion, SelectionScore, accept_exploratory, criterion_for,
                        score_model, score_with_fallback)

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
        if not isinstance(self.max_iterations, (int, np.integer)) or self.max_iterations < 1:
            raise ValueError("max_iterations must be a positive integer")
        if not self.ll_rel_tolerance > 0:  # and NaN, which turns the tolerance stop off
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
        state.assignments[rows] = logits(state, state.scores[rows].T).argmax(axis=0)
    else:
        def pick(post: np.ndarray, start: int) -> tuple[np.ndarray, bool]:
            hits = np.flatnonzero(fires(post, start))
            stop = hits[0] if len(hits) else post.shape[1]
            return post[:, :stop].argmax(axis=0), len(hits) > 0

        _pass(state, rows, pick)
    # each row is visited once, and a row that opens a class always changes
    return int(np.count_nonzero(state.assignments[rows] != before))


def _likelihood(state: ModelState) -> float:
    """data_log_likelihood(state), raising FloatingPointError unless finite:
    the start's, a made fit's and a creating pass's, the only ones a run
    reads."""
    ll = data_log_likelihood(state)
    if not np.isfinite(ll):
        raise FloatingPointError("non-finite log-likelihood")
    return ll


@dataclass
class Fit:
    """A fit, its log-likelihood, and the labels and change count of the
    plain E-step first made from it (_plain_e_step), None until then. An
    entry of SeedStart.fits holds a kept fit; any other is the run's own."""

    state: ModelState
    ll: float
    step: Optional[tuple[np.ndarray, int]] = None


@dataclass(frozen=True)
class SeedStart:
    """Where every run on one dataset, partition and family without extra
    classes begins: the seed fit after one E-step over the unlabeled rows,
    and its log-likelihood. A run given a start works on a fork of its state
    (ModelState.fork), so one start serves any number of runs with unchanged
    results. fits maps the assignments an M-step of those runs refit, as
    bytes, to a Fit, which a later run that reaches them forks (_fit) and
    whose plain E-step it replays (_plain_e_step). It lives as long as the
    start."""

    state: ModelState
    ll: float
    partition: SeedPartition
    fits: dict[bytes, Fit] = field(default_factory=dict, repr=False)


def seed_start(d: Dataset, p: SeedPartition, family: ModelFamily) -> SeedStart:
    """The start that exploratory_em, semisup_em without extra classes and
    calibrate_random_rate take as `start=` for d, p and family, which they
    would otherwise build themselves; it serves any number of runs with
    unchanged results. p must seed at least one class."""
    return _begin(d, p, EngineConfig(family))


def _begin(d: Dataset, p: SeedPartition, cfg: EngineConfig) -> SeedStart:
    """The start of a run given none: the seed fit plus cfg.extra_classes
    classes opened at random unlabeled rows, or, with no seeded class and a
    cfg.criterion, one class opened at the first unlabeled row."""
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
        if cfg.criterion is None or not len(unlabeled):
            raise ValueError("no seeded classes and no way to create any")
        first = unlabeled[0]
        state.add_class(init_new_class(state.X, first, cfg.family))
        state.assignments[first] = 0

    # initial hard labels for the unlabeled pool, so the first baseline
    # likelihood is well defined
    _e_step(state, unlabeled)
    return SeedStart(state, _likelihood(state), p)


def _check_start(start: SeedStart, d: Dataset, p: SeedPartition, family: ModelFamily) -> None:
    if start.partition is not p or start.state.X is not d.matrix() \
            or start.state.family is not family:
        raise ValueError("start is not seed_start of this dataset, partition and family")


def _fit(state: ModelState, fits: Optional[dict[bytes, Fit]]) -> tuple[ModelState, float, Fit]:
    """m_step(state), the log-likelihood of the result, and its Fit, looked
    up in the table (SeedStart.fits) by the state's assignments first: a fit
    of the same ones is forked in place of made. A made fit enters the table
    unless the run has none or the fit read an old vector (kept_old_vector),
    since only a fit that read none is a function of the assignments alone.
    On a hit the caller drops the argument, as m_step would have."""
    if fits is not None:
        key = state.assignments.tobytes()
        if key in fits:
            return fits[key].state.fork(), fits[key].ll, fits[key]
    state = m_step(state)
    ll = _likelihood(state)
    if fits is None or state.kept_old_vector:
        return state, ll, Fit(state, ll)
    entry = fits[key] = Fit(state.fork(), ll)
    return state, ll, entry


def _plain_e_step(state: ModelState, rows: np.ndarray, entry: Fit) -> int:
    """_e_step(state, rows) without a criterion, replayed from the step of
    entry, the state's Fit, or made and stored there: such a pass is a
    function of the state alone. No decision reads its likelihood, so it
    makes none."""
    if entry.step is None:
        changed = _e_step(state, rows)
        entry.step = state.assignments[rows], changed
    else:
        state.assignments[rows] = entry.step[0]
    return entry.step[1]


def _explore(state: ModelState, rows: np.ndarray, cfg: EngineConfig, coins: np.random.Generator,
             baseline: tuple[float, int]) -> tuple[int, SelectionScore, bool]:
    """A pass over rows in which cfg.criterion (its coins drawn from coins)
    may open classes, met by the selection gate: the grown model against
    baseline, the (log-likelihood, free parameters) of the state before the
    pass, both scored under one criterion (score_with_fallback). A rejected
    pass gives up the classes it opened, and their rows take their MAP class
    among the rest. Returns how many assignments the pass changed, the grown
    model's score and whether the gate kept it."""
    m_old, n = state.num_classes, state.X.shape[0]
    changed = _e_step(state, rows, for_pass(cfg.criterion, len(rows), coins))
    grown, before = score_with_fallback(
        (_likelihood(state), free_parameter_count(state)), baseline, n, cfg.selection)
    kept = accept_exploratory(grown, before)
    if not kept and state.num_classes > m_old:
        state.truncate(m_old)
        _e_step(state, rows[state.assignments[rows] >= m_old])
    return changed, grown, kept


def _run_em(
    d: Dataset, p: SeedPartition, cfg: EngineConfig, start: Optional[SeedStart] = None
) -> RunResult:
    """Hard EM from the seeded classes; cfg.criterion, if any, may open
    classes during the E-step (_explore) until the selection gate first
    rejects, and every other pass is a plain one (_plain_e_step). The
    random criterion's coins come from one stream seeded by cfg.rng_seed.
    A start (seed_start of d, p and cfg.family) takes the place of the seed
    fit and first E-step of a run without extra classes, and its table
    takes the place of the fits and E-steps that earlier runs on it made.
    The two stops are README § EM iteration's: before the M-step, from t = 2,
    when a pass changes nothing; after an M-step that keeps the class count."""
    if start is None:
        start, fits = _begin(d, p, cfg), None  # a run that builds its start keeps no table
    elif cfg.extra_classes:
        raise ValueError("a run with extra classes takes no seed start")
    else:
        _check_start(start, d, p, cfg.family)
        fits = start.fits
    n = len(d)
    unlabeled = p.unlabeled_idx
    state, ll = start.state.fork(), start.ll
    del start  # one built here is freed with the fork's first M-step
    # the start's state is a plain E-step's own result: another changes nothing
    entry = Fit(state, ll, (state.assignments[unlabeled], 0))

    latched_at: Optional[int] = None  # the iteration whose gate first rejected
    ll_trace, class_trace = [], []
    aic_fallback_logged = False
    coins = np.random.default_rng(cfg.rng_seed)

    for t in range(1, cfg.max_iterations + 1):
        # the state is unchanged since the likelihood of the last M-step
        m_old, v_old, baseline_ll = state.num_classes, free_parameter_count(state), ll
        if cfg.criterion is not None and latched_at is None:
            changed, grown, kept = _explore(state, unlabeled, cfg, coins, (baseline_ll, v_old))
            crit = grown.criterion  # the gate's, for the stop after the M-step
            if crit is not cfg.selection and not aic_fallback_logged:
                log.warning("AICc undefined (n=%d <= v+1=%d); the selection gate uses AIC",
                            n, grown.v + 1)
                aic_fallback_logged = True
            latched_at = None if kept else t
        else:
            changed = _plain_e_step(state, unlabeled, entry)
            crit = criterion_for(cfg.selection, n, v_old)

        if t > 1 and changed == 0:
            # the state is the last M-step's, which the same assignments give
            # back bit for bit; a pass that opens a class changes its row
            ll_trace.append(ll)
            class_trace.append(m_old)
            break
        state, ll, entry = _fit(state, fits)
        ll_trace.append(ll)
        class_trace.append(state.num_classes)
        if state.num_classes != m_old:
            continue
        # from t = 2 the model from before the pass is the previous fit; both
        # score under the gate's criterion. changed == 0 holds here only at
        # t = 1, where it ends the run after one M-step: ROADMAP item 2's defect
        before = score_model(baseline_ll, v_old, n, crit).score
        fitted = score_model(ll, v_old, n, crit).score
        tolerance = cfg.ll_rel_tolerance * max(abs(before), 1.0)
        if changed == 0 or (t > 1 and abs(fitted - before) < tolerance):
            break

    return RunResult(state, t, ll_trace, class_trace, latched_at)  # max_iterations >= 1


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
    return _run_em(d, p, cfg, start)


def semisup_em(
    d: Dataset, p: SeedPartition, cfg: EngineConfig, *, start: Optional[SeedStart] = None
) -> RunResult:
    """Standard classification EM over the seeded classes plus
    cfg.extra_classes classes initialized from random unlabeled instances.
    Without extra classes, a start from seed_start(d, p, cfg.family) changes
    no result."""
    return _run_em(d, p, replace(cfg, criterion=None), start)


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
    scores of a start from seed_start(d, p, family), built here if not
    given, which its E-step left as the seed fit's."""
    if reference is CriterionKind.RANDOM:
        raise ValueError("reference must be minmax or js")
    ref = minmax_fires if reference is CriterionKind.MINMAX else js_fires
    if start is None:
        start = seed_start(d, p, family)
    _check_start(start, d, p, family)
    unlabeled = p.unlabeled_idx
    if not len(unlabeled):
        return 0.0
    post = posteriors(start.state, class_major(start.state.scores, unlabeled))
    return int(np.count_nonzero(ref(post))) / len(unlabeled)

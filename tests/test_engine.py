import logging

import numpy as np
import pytest

from exploressl.criteria import CriterionConfig, CriterionKind
from exploressl import engine
from exploressl.crp import CrpConfig, PickRule, crp_gibbs
from exploressl.data import Dataset, SeedPartition, make_partitions
from exploressl.engine import (
    EngineConfig,
    calibrate_random_rate,
    exploratory_em,
    seed_start,
    semisup_em,
)
from exploressl.evaluation import seed_macro_f1
from exploressl.experiments import ExperimentSpec, _run_group, prepare_family_datasets
from exploressl.models import ModelFamily, ModelState, data_log_likelihood, m_step, refit
from exploressl.synth import SyntheticSpec, generate_synthetic
from test_golden import CORPORA as GOLDEN_CORPORA, RUN_SEED as GOLDEN_RUN_SEED


def minmax_cfg(**kw):
    return EngineConfig(
        family=kw.pop("family", ModelFamily.NB),
        criterion=CriterionConfig(CriterionKind.MINMAX),
        **kw,
    )


def eval_f1(d, p, result):
    idx = sorted(p.unlabeled_idx)
    return seed_macro_f1(
        [int(result.final_state.assignments[i]) for i in idx],
        d.gold_ids[idx].tolist(),
        p.seeded_class_ids,
    )


def small_synthetic(seed, classes=3, seeded=2):
    d = generate_synthetic(
        SyntheticSpec(classes, 20, 24, separation=1e6, rng_seed=seed)
    )
    p = make_partitions(d, seeded, 0.1, 1, seed)[0]
    return d, p


class TestExploratoryEm:
    def test_no_unlabeled_reduces_to_supervised(self):
        d = generate_synthetic(SyntheticSpec(2, 5, 10, separation=1e6, rng_seed=0))
        p = SeedPartition([0, 1], range(len(d)), [])
        r = exploratory_em(d, p, minmax_cfg())
        assert r.iterations_run == 1
        assert r.final_state.num_classes == 2

    def test_discovers_third_cluster(self):
        # 3 well-separated clusters, 2 seeded: MinMax opens one new class
        d, p = small_synthetic(2)
        r = exploratory_em(d, p, minmax_cfg())
        assert r.final_state.num_classes == 3
        assert eval_f1(d, p, r) == pytest.approx(1.0)

    def test_seed_labels_fixed(self):
        d, p = small_synthetic(3)
        r = exploratory_em(d, p, minmax_cfg())
        seeded = sorted(p.seeded_class_ids)
        for i in p.labeled_idx:
            j = int(r.final_state.assignments[i])
            assert r.final_state.seed_class_ids[j] == d.gold_ids[i]

    def test_class_count_never_grows_after_latch(self):
        d, p = small_synthetic(4, classes=4, seeded=2)
        r = exploratory_em(d, p, minmax_cfg())
        if r.can_add_latched_at is not None:
            latch = r.can_add_latched_at
            post = r.class_count_trace[latch - 1 :]
            assert all(a >= b for a, b in zip(post, post[1:]))

    def test_deterministic(self):
        d, p = small_synthetic(5)
        a = exploratory_em(d, p, minmax_cfg(rng_seed=9))
        b = exploratory_em(d, p, minmax_cfg(rng_seed=9))
        assert a.ll_trace == b.ll_trace
        assert a.class_count_trace == b.class_count_trace
        assert np.array_equal(a.final_state.assignments, b.final_state.assignments)

    def test_reduction_to_semisup_when_criterion_never_fires(self):
        d, p = small_synthetic(6)
        never = EngineConfig(
            family=ModelFamily.NB,
            criterion=CriterionConfig(CriterionKind.RANDOM, random_rate=0.0),
        )
        a = exploratory_em(d, p, never)
        b = semisup_em(d, p, EngineConfig(family=ModelFamily.NB))
        assert np.array_equal(a.final_state.assignments, b.final_state.assignments)

    def test_unsupervised_smoke(self):
        d = generate_synthetic(SyntheticSpec(2, 15, 10, separation=1e6, rng_seed=7))
        p = SeedPartition([], [], range(len(d)))
        r = exploratory_em(d, p, minmax_cfg())
        assert r.final_state.num_classes >= 1

    def test_requires_criterion(self):
        d, p = small_synthetic(8)
        with pytest.raises(ValueError):
            exploratory_em(d, p, EngineConfig(family=ModelFamily.NB))

    def test_rejects_extra_classes(self):
        d, p = small_synthetic(8)
        with pytest.raises(ValueError):
            exploratory_em(d, p, minmax_cfg(extra_classes=1))

    def test_nb_likelihood_monotone_after_latch(self):
        d, p = small_synthetic(10, classes=4, seeded=2)
        r = exploratory_em(d, p, minmax_cfg())
        latch = r.can_add_latched_at or 1
        tail = r.ll_trace[latch - 1 :]
        assert all(b >= a - 1e-8 for a, b in zip(tail, tail[1:]))


    def test_aicc_fallback_logged_once_per_run(self, caplog):
        # n=240 <= v+1 at V=2000, so the gate scores with AIC in every
        # iteration; the run says so once
        d = generate_synthetic(SyntheticSpec(6, 40, 2000, separation=3.0, rng_seed=1))
        p = make_partitions(d, 3, 0.1, 1, 1)[0]
        with caplog.at_level(logging.WARNING):
            r = exploratory_em(d, p, minmax_cfg())
        warnings = [rec for rec in caplog.records if rec.levelno >= logging.WARNING]
        assert r.iterations_run > 1
        assert len(warnings) == 1
        assert warnings[0].name == "exploressl.engine"
        assert "uses AIC" in warnings[0].getMessage()

    def test_no_fallback_warning_when_aicc_defined(self, caplog):
        d = generate_synthetic(SyntheticSpec(3, 40, 6, separation=1e6, rng_seed=2))
        p = make_partitions(d, 2, 0.1, 1, 2)[0]
        with caplog.at_level(logging.WARNING):
            exploratory_em(d, p, minmax_cfg())
        assert not [rec for rec in caplog.records if rec.levelno >= logging.WARNING]

    def test_aicc_fallback_warns_only_where_a_class_can_open(self, caplog):
        # n=480 <= v+1 at V=300 in every iteration; only exploratory's gate
        # decides anything, so semisup logs no fallback
        d = generate_synthetic(SyntheticSpec(6, 80, 300, separation=3.0, rng_seed=4))
        p = make_partitions(d, 3, 0.1, 1, 4)[0]
        for run, cfg, expected in ((semisup_em, EngineConfig(ModelFamily.NB), 0),
                                   (exploratory_em, minmax_cfg(), 1)):
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                run(d, p, cfg)
            assert ["uses AIC" in rec.getMessage() for rec in caplog.records
                    if rec.levelno >= logging.WARNING] == [True] * expected


class TestStoppingRule:
    # In both runs the JS gate opens classes in iteration 1, falls back to AIC
    # because v + 1 > n, and rejects them; from iteration 2 AICc is defined.
    # The stopping rule must score the fitted model under the criterion the
    # gate would score its baseline (the previous fitted model) with.

    @staticmethod
    def js_run(family, spec):
        d = prepare_family_datasets(generate_synthetic(spec))[family]
        p = make_partitions(d, 2, 0.1, 1, spec.rng_seed)[0]
        cfg = EngineConfig(family, CriterionConfig(CriterionKind.JS), rng_seed=spec.rng_seed)
        return exploratory_em(d, p, cfg)

    def test_aicc_correction_does_not_hide_a_drop(self):
        # at t = 2 the AICc score is 75.6 below the previous fitted model's;
        # against that model's AIC score it is 3.4 above, under the tolerance
        r = self.js_run(ModelFamily.NB, SyntheticSpec(6, 40, 40, 2.0, rng_seed=3))
        assert r.can_add_latched_at == 1
        assert r.iterations_run == 11

    def test_stops_once_the_score_settles(self):
        # at t = 2 the score moves 0.42, under the 0.54 tolerance; the previous
        # fitted model's AIC score lies 170 lower
        r = self.js_run(ModelFamily.VMF, SyntheticSpec(4, 40, 40, 4.0, rng_seed=2))
        assert r.can_add_latched_at == 1
        assert r.iterations_run == 2


@pytest.mark.parametrize("field, value", [
    ("ll_rel_tolerance", float("nan")), ("ll_rel_tolerance", 0.0),
    ("max_iterations", 2.5), ("max_iterations", 0),
])
def test_engine_config_refuses_values_no_run_can_use(field, value):
    # a NaN tolerance would switch the tolerance stop off, and a fractional
    # cap would fail only once a run reached range()
    with pytest.raises(ValueError, match=f"^{field} must be"):
        EngineConfig(ModelFamily.NB, **{field: value})


@pytest.mark.parametrize("with_start", [False, True])
@pytest.mark.parametrize("run, stage", [
    (exploratory_em, "for_pass"), (exploratory_em, "m_step"), (semisup_em, "m_step"),
])
def test_a_non_finite_likelihood_ends_the_run(monkeypatch, run, stage, with_start):
    # the likelihood made next after a stage reads NaN once: after for_pass
    # that is the creating pass's, after m_step the fit's. semisup_em drops
    # the config's criterion, so it has only M-steps
    d, p = small_synthetic(3)
    start = seed_start(d, p, ModelFamily.NB) if with_start else None
    armed, staged, loglik = [], getattr(engine, stage), engine.data_log_likelihood
    monkeypatch.setattr(engine, stage, lambda *args: armed.append(1) or staged(*args))
    monkeypatch.setattr(engine, "data_log_likelihood",
                        lambda state: np.nan if armed and armed.pop() else loglik(state))
    with pytest.raises(FloatingPointError, match="^non-finite log-likelihood$"):
        run(d, p, minmax_cfg(), start=start)


@pytest.mark.parametrize("family", list(ModelFamily))
def test_a_run_that_stops_unchanged_ends_on_a_fixed_point(monkeypatch, family):
    # a run whose last iteration changed no assignment and opened no class
    # from t = 2 stops without the M-step; its final state must be what that
    # M-step would have given, and ll_trace[-1] its likelihood
    calls = []
    monkeypatch.setattr(engine, "m_step", lambda state: calls.append(1) or m_step(state))
    stopped = 0
    for seed in range(6):
        raw, p = small_synthetic(30 + seed, classes=4, seeded=2)
        d = prepare_family_datasets(raw)[family]
        for cfg in (EngineConfig(family), EngineConfig(family, extra_classes=2, rng_seed=seed),
                    minmax_cfg(family=family), EngineConfig(family, CriterionConfig(
                        CriterionKind.JS), max_iterations=3)):
            calls.clear()
            r = (semisup_em if cfg.criterion is None else exploratory_em)(d, p, cfg)
            assert len(r.ll_trace) == len(r.class_count_trace) == r.iterations_run
            if len(calls) == r.iterations_run:
                continue  # the last iteration refit
            assert len(calls) == r.iterations_run - 1 and r.iterations_run >= 2
            stopped += 1
            s = r.final_state
            refit = m_step(s)
            assert np.array_equal(refit.assignments, s.assignments)
            assert np.array_equal(refit.vectors, s.vectors)
            assert np.array_equal(refit.priors, s.priors)
            assert family is not ModelFamily.VMF or np.array_equal(refit.kappas, s.kappas)
            assert data_log_likelihood(refit) == r.ll_trace[-1]
            assert r.class_count_trace[-1] == s.num_classes
    assert stopped


@pytest.fixture(scope="module")
def overlap_corpus():
    """6 classes x 80 over V=300 at separation 3, 3 of them seeded at 10 %, in
    3 partitions: a corpus on which exploratory JS and MinMax runs latch at
    iteration 1 and keep only the seeded classes."""
    datasets = prepare_family_datasets(generate_synthetic(SyntheticSpec(6, 80, 300, 3.0,
                                                                        rng_seed=1)))
    return datasets, make_partitions(datasets[ModelFamily.NB], 3, 0.1, 3, 1)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: semisup_em stops after one M-step while an "
                   "exploratory run that latched at iteration 1 keeps iterating")
@pytest.mark.parametrize("kind", [CriterionKind.JS, CriterionKind.MINMAX])
@pytest.mark.parametrize("family", list(ModelFamily))
def test_a_run_that_latches_at_once_and_keeps_no_class_is_semisup(overlap_corpus, family,
                                                                  kind):
    # an exploratory run whose gate rejects the first pass, and which ends
    # with the seeded classes alone, has run semisup_em's EM
    datasets, partitions = overlap_corpus
    d = datasets[family]
    compared = 0
    for p in partitions:
        r = exploratory_em(d, p, EngineConfig(family, CriterionConfig(kind)))
        if r.can_add_latched_at != 1 or r.final_state.num_classes != len(p.seeded_class_ids):
            continue
        base = semisup_em(d, p, EngineConfig(family))
        assert np.array_equal(r.final_state.assignments, base.final_state.assignments)
        compared += 1
    if not compared:
        pytest.skip("no run latched at iteration 1 and kept only the seeded classes")


@pytest.mark.parametrize("family", list(ModelFamily))
def test_minmax_after_js_on_one_start_refits_nothing(overlap_corpus, monkeypatch, family):
    # both latch at iteration 1 and keep no class, so from then on MinMax
    # follows the trajectory JS took: every M-step it needs is a kept fit
    datasets, partitions = overlap_corpus
    d = datasets[family]
    calls = []
    monkeypatch.setattr(engine, "m_step", lambda state: calls.append(1) or m_step(state))
    for p in partitions:
        start = seed_start(d, p, family)
        for kind in (CriterionKind.JS, CriterionKind.MINMAX):
            calls.clear()
            cfg = EngineConfig(family, CriterionConfig(kind))
            r = exploratory_em(d, p, cfg, start=start)
            assert r.can_add_latched_at == 1
            assert r.final_state.num_classes == len(p.seeded_class_ids)
        assert calls == []
        assert outcome(r) == outcome(exploratory_em(d, p, cfg))


@pytest.mark.parametrize("family", list(ModelFamily))
def test_the_gate_scores_only_passes_that_can_open_a_class(overlap_corpus, monkeypatch,
                                                          family):
    # one gate decision per creating iteration, the latch's included, and none
    # in semisup_em; on five disjoint blocks with two seeded the NB and
    # K-Means JS runs create until iteration 3
    blocks = prepare_family_datasets(generate_synthetic(SyntheticSpec(5, 40, 50, 1e6,
                                                                      rng_seed=3)))
    calls = []
    accept = engine.accept_exploratory
    monkeypatch.setattr(engine, "accept_exploratory",
                        lambda *scores: calls.append(1) or accept(*scores))
    creating = 0
    for d, partitions in ((overlap_corpus[0][family], overlap_corpus[1]),
                          (blocks[family], make_partitions(blocks[family], 2, 0.1, 2, 1))):
        for p in partitions:
            for cfg in [EngineConfig(family, CriterionConfig(kind))
                        for kind in (CriterionKind.JS, CriterionKind.MINMAX)] + [
                    EngineConfig(family), EngineConfig(family, extra_classes=1)]:
                calls.clear()
                r = (semisup_em if cfg.criterion is None else exploratory_em)(d, p, cfg)
                want = 0 if cfg.criterion is None else r.can_add_latched_at or r.iterations_run
                assert len(calls) == want
                creating = max(creating, want)
    assert creating > 1 or family is ModelFamily.VMF


PREFIX_ARMS = {
    "exploratory-js": lambda d, p, family, k: exploratory_em(
        d, p, EngineConfig(family, CriterionConfig(CriterionKind.JS), max_iterations=k)),
    "semisup-extra-1": lambda d, p, family, k: semisup_em(
        d, p, EngineConfig(family, extra_classes=1, max_iterations=k)),
    **{f"crp-{rule.value}": lambda d, p, family, k, rule=rule: crp_gibbs(
        d, p, CrpConfig(1e-2, num_epochs=k, pick=rule, family=family)) for rule in PickRule},
}


@pytest.mark.parametrize("arm", PREFIX_ARMS)
@pytest.mark.parametrize("family", list(ModelFamily))
def test_a_capped_run_is_a_prefix_of_the_uncapped_one(family, arm):
    # a run capped at k iterations (Gibbs: epochs) is the first k of the
    # uncapped run: its traces are their first k entries, and it has latched
    # where the uncapped run latched by k; a cap at the run's own length
    # changes nothing. On five disjoint blocks with two seeded, the NB and
    # K-Means JS runs latch at iteration 3
    datasets = prepare_family_datasets(generate_synthetic(SyntheticSpec(5, 40, 50, 1e6,
                                                                        rng_seed=3)))
    d = datasets[family]
    run = PREFIX_ARMS[arm]
    for p in make_partitions(d, 2, 0.1, 2, 1):
        full = run(d, p, family, 15 if arm in ("exploratory-js", "semisup-extra-1") else 5)
        latched = full.can_add_latched_at
        for k in range(1, full.iterations_run + 1):
            capped = run(d, p, family, k)
            assert capped.iterations_run == k
            assert capped.ll_trace == full.ll_trace[:k]
            assert capped.class_count_trace == full.class_count_trace[:k]
            assert capped.can_add_latched_at == (latched if latched and latched <= k else None)


class TestSemisupEm:
    def test_no_unlabeled(self):
        d = generate_synthetic(SyntheticSpec(2, 5, 10, separation=1e6, rng_seed=0))
        p = SeedPartition([0, 1], range(len(d)), [])
        r = semisup_em(d, p, EngineConfig(family=ModelFamily.NB))
        assert r.final_state.num_classes == 2

    def test_extra_classes_added(self):
        d, p = small_synthetic(11, classes=4, seeded=2)
        r = semisup_em(d, p, EngineConfig(family=ModelFamily.NB, extra_classes=2))
        # extras can be pruned when emptied, never exceed k + extras
        assert 2 <= r.final_state.num_classes <= 4

    def test_extra_exceeding_unlabeled(self):
        d, p = small_synthetic(12)
        with pytest.raises(ValueError):
            semisup_em(
                d, p, EngineConfig(family=ModelFamily.NB, extra_classes=10_000)
            )

    def test_extra_classes_deterministic(self):
        d, p = small_synthetic(13, classes=4, seeded=2)
        cfg = EngineConfig(family=ModelFamily.NB, extra_classes=2, rng_seed=3)
        a = semisup_em(d, p, cfg)
        b = semisup_em(d, p, cfg)
        assert np.array_equal(a.final_state.assignments, b.final_state.assignments)


def sweep_cell(d, p, m_values):
    """The semisup-sweep grid cell's row for NB on d and p."""
    spec = ExperimentSpec(dataset_path="d.txt", output_dir="out",
                          sweep_m_values=tuple(m_values))
    task = {"family": "nb", "algorithm": "semisup-sweep", "criterion": None,
            "p_new": None, "partition_index": 0, "run_seed": 0}
    row = _run_group([task], spec, [p], {ModelFamily.NB: d})[0]
    assert not row["error"]
    return row


class TestBestExtraClassesSweep:
    def test_single_zero_matches_plain(self):
        d, p = small_synthetic(14)
        row = sweep_cell(d, p, [0])
        plain = semisup_em(d, p, EngineConfig(family=ModelFamily.NB))
        assert [r["extra_classes"] for r in row["sweep_table"]] == [0]
        assert row["seed_f1"] == f"{eval_f1(d, p, plain):.6f}"
        assert np.array_equal(row["assignments"], plain.final_state.assignments)

    def test_table_has_one_row_per_m(self):
        d, p = small_synthetic(15)
        row = sweep_cell(d, p, [0, 1, 2, 5])
        assert [r["extra_classes"] for r in row["sweep_table"]] == [0, 1, 2, 5]


class TestCalibrateRandomRate:
    def test_rate_in_unit_interval(self):
        d, p = small_synthetic(17)
        rate = calibrate_random_rate(d, p, ModelFamily.NB)
        assert 0.0 <= rate <= 1.0

    def test_rejects_random_reference(self):
        d, p = small_synthetic(18)
        with pytest.raises(ValueError):
            calibrate_random_rate(d, p, ModelFamily.NB, CriterionKind.RANDOM)


def blind_to_unlabeled_gold(d, p, how):
    """d with the gold ids of p's unlabeled rows set to -1 or permuted."""
    gold = d.gold_ids.copy()
    rows = p.unlabeled_idx
    gold[rows] = -1 if how == "hidden" else np.random.default_rng(0).permutation(gold[rows])
    assert not np.array_equal(gold, d.gold_ids)
    return Dataset(d.matrix(), gold, d.instance_ids, d.label_names)


def outcome(result):
    s = result.final_state
    return (s.assignments.tolist(), s.num_classes, result.iterations_run, result.ll_trace,
            result.class_count_trace, result.can_add_latched_at)


class TestNoRunReadsTestLabels:
    # the gold id of an unlabeled row is a test label: only scoring may read it
    @pytest.mark.parametrize("how", ["hidden", "permuted"])
    @pytest.mark.parametrize("family", list(ModelFamily))
    def test_runs_do_not_change_with_unlabeled_gold(self, family, how):
        raw, p = small_synthetic(21, classes=4, seeded=2)
        d = prepare_family_datasets(raw)[family]
        assert len(d) == len(raw)
        blind = blind_to_unlabeled_gold(d, p, how)
        rates = [calibrate_random_rate(x, p, family, ref)
                 for ref in (CriterionKind.MINMAX, CriterionKind.JS) for x in (d, blind)]
        assert rates[0] == rates[1] and rates[2] == rates[3]
        runs = [
            lambda x: exploratory_em(x, p, EngineConfig(
                family, CriterionConfig(CriterionKind.JS), rng_seed=4)),
            lambda x: exploratory_em(x, p, EngineConfig(
                family, CriterionConfig(CriterionKind.RANDOM, rates[0]), rng_seed=4)),
            lambda x: semisup_em(x, p, EngineConfig(family, extra_classes=2, rng_seed=4)),
        ] + [
            lambda x, pick=pick: crp_gibbs(x, p, CrpConfig(
                1e-2, num_epochs=3, pick=pick, family=family, rng_seed=4))
            for pick in PickRule
        ]
        for run in runs:
            assert outcome(run(blind)) == outcome(run(d))


START_ARRAYS = ("assignments", "scores", "vectors", "priors", "kappas")


def test_runs_forked_from_one_seed_start_equal_runs_without_it(monkeypatch):
    # every run that takes the start gives the result of the same run built
    # from scratch, and leaves the start as seed_start made it; on four
    # disjoint blocks with two seeded, MinMax and JS open classes that the
    # gate keeps and the random criterion opens so many that it truncates
    truncated = []
    truncate = ModelState.truncate
    monkeypatch.setattr(ModelState, "truncate",
                        lambda state, m_keep: truncated.append(state.family) or truncate(
                            state, m_keep))
    accepted = []
    raw, p = small_synthetic(8, classes=4, seeded=2)
    for family, d in prepare_family_datasets(raw).items():
        start = seed_start(d, p, family)
        rate = calibrate_random_rate(d, p, family, start=start)
        assert rate == calibrate_random_rate(d, p, family)
        criteria = [CriterionConfig(CriterionKind.MINMAX), CriterionConfig(CriterionKind.JS),
                    CriterionConfig(CriterionKind.RANDOM, rate)]
        for cfg in [EngineConfig(family, c, rng_seed=5) for c in criteria] + [
                EngineConfig(family)]:
            run = semisup_em if cfg.criterion is None else exploratory_em
            forked = run(d, p, cfg, start=start)
            assert outcome(forked) == outcome(run(d, p, cfg))
            if forked.final_state.num_classes > len(p.seeded_class_ids):
                accepted.append(family)
        fresh = seed_start(d, p, family)
        assert start.ll == fresh.ll
        for name in START_ARRAYS:
            mine, want = getattr(start.state, name), getattr(fresh.state, name)
            assert (mine is want is None) or np.array_equal(mine, want), name
    assert accepted and truncated


def test_a_seed_start_fits_only_its_own_runs():
    raw, p = small_synthetic(8, classes=4, seeded=2)
    datasets = prepare_family_datasets(raw)
    d = datasets[ModelFamily.NB]
    start = seed_start(d, p, ModelFamily.NB)
    other = make_partitions(d, 2, 0.1, 1, 9)[0]
    for run in (
        lambda: semisup_em(d, other, EngineConfig(ModelFamily.NB), start=start),
        lambda: semisup_em(datasets[ModelFamily.KMEANS], p, EngineConfig(ModelFamily.KMEANS),
                           start=start),
        lambda: calibrate_random_rate(d, p, ModelFamily.VMF, start=start),
    ):
        with pytest.raises(ValueError, match="not seed_start"):
            run()
    with pytest.raises(ValueError, match="extra classes"):
        semisup_em(d, p, EngineConfig(ModelFamily.NB, extra_classes=1), start=start)
    with pytest.raises(ValueError, match="no seeded classes"):
        seed_start(d, SeedPartition([], [], range(len(d))), ModelFamily.NB)


@pytest.mark.parametrize("family", [ModelFamily.KMEANS, ModelFamily.VMF])
def test_a_fit_that_kept_an_old_vector_is_never_reused(family):
    # a seeded class left without members keeps the vector it had before the
    # M-step, so the same assignments refit from two different old vectors
    # give two different states: each must be the one m_step gives
    raw, p = small_synthetic(8, classes=4, seeded=2)
    d = prepare_family_datasets(raw)[family]
    start = seed_start(d, p, family)
    s = start.state
    y = np.zeros(len(d), dtype=np.int64)  # seeded class 1 has no member

    def state(vectors):
        return ModelState(family, d.matrix(), vectors, s.priors, s.seed_class_ids, y.copy(),
                          s.kappas)

    for old in (s.vectors, s.vectors[::-1].copy()):
        got, ll, entry = engine._fit(state(old), start.fits)
        want = m_step(state(old))
        assert entry.state is got  # the run's own fit, which no table keeps
        assert got.kept_old_vector and np.array_equal(got.vectors[1], old[1])
        for name in START_ARRAYS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert ll == data_log_likelihood(want)
    assert not start.fits


def test_every_kept_fit_is_a_fresh_m_step_of_its_assignments(monkeypatch):
    # the group of test_runs_forked_from_one_seed_start_equal_runs_without_it,
    # run twice, so the second pass forks every fit the first one kept and
    # opens, truncates and refits classes on the forks: afterwards each kept
    # fit is still what an M-step makes of its assignments
    truncated = []
    truncate = ModelState.truncate
    monkeypatch.setattr(ModelState, "truncate",
                        lambda state, m_keep: truncated.append(state.family) or truncate(
                            state, m_keep))
    raw, p = small_synthetic(8, classes=4, seeded=2)
    for family, d in prepare_family_datasets(raw).items():
        start = seed_start(d, p, family)
        rate = calibrate_random_rate(d, p, family, start=start)
        criteria = [CriterionConfig(CriterionKind.MINMAX), CriterionConfig(CriterionKind.JS),
                    CriterionConfig(CriterionKind.RANDOM, rate)]
        for cfg in [EngineConfig(family, c, rng_seed=5) for c in criteria] * 2 + [
                EngineConfig(family)] * 2:
            run = semisup_em if cfg.criterion is None else exploratory_em
            assert outcome(run(d, p, cfg, start=start)) == outcome(run(d, p, cfg))
        assert start.fits
        for key, entry in start.fits.items():
            kept, ll = entry.state, entry.ll
            y = np.frombuffer(key, dtype=np.int64)
            m = max(int(y.max()) + 1, len(p.seeded_class_ids))
            vectors = np.zeros((m, d.matrix().shape[1]))  # an M-step kept here reads none
            fresh = refit(family, d.matrix(), y, kept.seed_class_ids, vectors)
            assert not kept.kept_old_vector
            for name in START_ARRAYS:
                mine, want = getattr(kept, name), getattr(fresh, name)
                assert (mine is want is None) or np.array_equal(mine, want), name
            assert ll == data_log_likelihood(fresh)
    assert truncated


@pytest.fixture(scope="module")
def golden_corpora():
    """The "overlap" and "blocks" corpora and partition of the golden runs."""
    out = {}
    for name in ("overlap", "blocks"):
        datasets = prepare_family_datasets(generate_synthetic(GOLDEN_CORPORA[name]))
        out[name] = datasets, make_partitions(datasets[ModelFamily.NB], 2, 0.1, 1, 3)[0]
    return out


def _counted_plain_e_steps(monkeypatch, rows, events):
    """Record "plain" in events for each E-step over all of rows that cannot
    open a class, and "hit" or "fit" for each fit, by whether the fit table
    holds it."""
    e_step, fit = engine._e_step, engine._fit

    def counted_e_step(state, over, fires=None):
        if fires is None and len(over) == len(rows):
            events.append("plain")
        return e_step(state, over, fires)

    def counted_fit(state, fits):
        events.append("hit" if fits is not None and state.assignments.tobytes() in fits
                      else "fit")
        return fit(state, fits)

    monkeypatch.setattr(engine, "_e_step", counted_e_step)
    monkeypatch.setattr(engine, "_fit", counted_fit)


@pytest.mark.parametrize("order", ["listed", "reversed"])
@pytest.mark.parametrize("corpus", ["overlap", "blocks"])
def test_replayed_e_steps_equal_fresh_runs(golden_corpora, monkeypatch, corpus, order):
    # the arms of a grid group that take the start, back to back on it:
    # exploratory with each criterion, semisup and the sweep's m = 0 run.
    # Once latched they rejoin one another and replay the E-steps of the fits
    # they share, and semisup's first pass is the start's own: each run
    # equals the same run made without the start, with fewer plain E-steps
    datasets, p = golden_corpora[corpus]
    for family, d in datasets.items():
        start = seed_start(d, p, family)
        rate = calibrate_random_rate(d, p, family, start=start)
        criteria = [CriterionConfig(CriterionKind.JS), CriterionConfig(CriterionKind.MINMAX),
                    CriterionConfig(CriterionKind.RANDOM, rate), None, None]
        if order == "reversed":
            criteria.reverse()
        shared, fresh = [], []
        for criterion in criteria:
            cfg = EngineConfig(family, criterion, rng_seed=GOLDEN_RUN_SEED)
            run = semisup_em if criterion is None else exploratory_em
            with monkeypatch.context() as patch:
                _counted_plain_e_steps(patch, p.unlabeled_idx, shared)
                replayed = run(d, p, cfg, start=start)
            with monkeypatch.context() as patch:
                _counted_plain_e_steps(patch, p.unlabeled_idx, fresh)
                made = run(d, p, cfg)
            assert outcome(replayed) == outcome(made)
        assert shared.count("plain") < fresh.count("plain")
        # each E-step a kept fit holds is the plain E-step that fit makes
        steps = [entry for entry in start.fits.values() if entry.step is not None]
        assert steps
        for entry in steps:
            state = entry.state.fork()
            labels, changed = entry.step
            assert engine._e_step(state, p.unlabeled_idx) == changed
            assert np.array_equal(state.assignments[p.unlabeled_idx], labels)


@pytest.mark.parametrize("family", [ModelFamily.KMEANS, ModelFamily.VMF])
@pytest.mark.parametrize("first,second", [("minmax", "js"), ("js", "minmax")])
def test_a_run_that_hits_a_kept_fit_makes_no_plain_e_step_after_it(
        golden_corpora, monkeypatch, family, first, second):
    # on the golden "overlap" corpus both criteria latch in iteration 1 and
    # end alike, so the second run forks the first's fits from its first
    # M-step on and replays each E-step the first made from them
    datasets, p = golden_corpora["overlap"]
    d = datasets[family]
    start = seed_start(d, p, family)
    cfgs = [EngineConfig(family, CriterionConfig(CriterionKind(kind)), rng_seed=GOLDEN_RUN_SEED)
            for kind in (first, second)]
    exploratory_em(d, p, cfgs[0], start=start)
    events = []
    with monkeypatch.context() as patch:
        _counted_plain_e_steps(patch, p.unlabeled_idx, events)
        result = exploratory_em(d, p, cfgs[1], start=start)
    assert "hit" in events and "fit" not in events
    assert "plain" not in events[events.index("hit"):]
    assert outcome(result) == outcome(exploratory_em(d, p, cfgs[1]))

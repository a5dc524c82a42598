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
    semisup_em,
)
from exploressl.evaluation import seed_macro_f1
from exploressl.experiments import ExperimentSpec, _run_one, prepare_family_datasets
from exploressl.models import ModelFamily, data_log_likelihood, m_step
from exploressl.synth import SyntheticSpec, generate_synthetic


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
    # gate scored its baseline (the previous fitted model) with.

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


@pytest.mark.parametrize("family", list(ModelFamily))
def test_a_run_that_stops_unchanged_ends_on_a_fixed_point(monkeypatch, family):
    # a run whose last iteration changed no assignment and opened no class
    # from t = 2 stops without the M-step; its final state must be what that
    # M-step would have given, and ll_trace[-1] its likelihood
    calls = []
    monkeypatch.setattr(engine, "m_step", lambda state, d: calls.append(1) or m_step(state, d))
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
            refit = m_step(s, d)
            assert np.array_equal(refit.assignments, s.assignments)
            assert np.array_equal(refit.vectors, s.vectors)
            assert np.array_equal(refit.priors, s.priors)
            assert family is not ModelFamily.VMF or np.array_equal(refit.kappas, s.kappas)
            assert data_log_likelihood(refit) == r.ll_trace[-1]
            assert r.class_count_trace[-1] == s.num_classes
    assert stopped


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
    row = _run_one(task, spec, [p], {ModelFamily.NB: d})
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

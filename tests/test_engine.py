import logging

import numpy as np
import pytest

from exploressl.criteria import CriterionConfig, CriterionKind
from exploressl.data import SeedPartition, make_partitions
from exploressl.engine import (
    EngineConfig,
    best_extra_classes_sweep,
    calibrate_random_rate,
    exploratory_em,
    semisup_em,
)
from exploressl.evaluation import seed_macro_f1
from exploressl.models import ModelFamily
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
        [d.gold_labels[i] for i in idx],
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
        p = SeedPartition(
            frozenset({0, 1}), frozenset(range(len(d))), frozenset(), rng_seed=0
        )
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
            assert r.final_state.seed_class_ids[j] == d.gold_labels[i]

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
        p = SeedPartition(frozenset(), frozenset(), frozenset(range(len(d))), 0)
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

class TestSemisupEm:
    def test_no_unlabeled(self):
        d = generate_synthetic(SyntheticSpec(2, 5, 10, separation=1e6, rng_seed=0))
        p = SeedPartition(
            frozenset({0, 1}), frozenset(range(len(d))), frozenset(), rng_seed=0
        )
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


class TestBestExtraClassesSweep:
    def test_single_zero_matches_plain(self):
        d, p = small_synthetic(14)
        cfg = EngineConfig(family=ModelFamily.NB)
        best_m, best_f1, rows = best_extra_classes_sweep(d, p, cfg, [0])
        plain = semisup_em(d, p, cfg)
        assert best_m == 0
        assert best_f1 == pytest.approx(eval_f1(d, p, plain))

    def test_table_has_one_row_per_m(self):
        d, p = small_synthetic(15)
        cfg = EngineConfig(family=ModelFamily.NB)
        _, _, rows = best_extra_classes_sweep(d, p, cfg, [0, 1, 2, 5])
        assert [r["extra_classes"] for r in rows] == [0, 1, 2, 5]

    def test_tie_prefers_smaller_m(self):
        d, p = small_synthetic(16, classes=2, seeded=2)
        cfg = EngineConfig(family=ModelFamily.NB)
        best_m, _, rows = best_extra_classes_sweep(d, p, cfg, [0, 1])
        f1s = [r["seed_macro_f1"] for r in rows]
        if f1s[0] == f1s[1]:
            assert best_m == 0


class TestCalibrateRandomRate:
    def test_rate_in_unit_interval(self):
        d, p = small_synthetic(17)
        rate = calibrate_random_rate(d, p, ModelFamily.NB)
        assert 0.0 <= rate <= 1.0

    def test_rejects_random_reference(self):
        d, p = small_synthetic(18)
        with pytest.raises(ValueError):
            calibrate_random_rate(d, p, ModelFamily.NB, CriterionKind.RANDOM)

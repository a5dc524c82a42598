"""End-to-end acceptance suite. Each test prints one PASS/FAIL line for its
numbered check; slower checks share session-scoped run caches."""

import math
import time
from itertools import permutations

import numpy as np
import pytest

from exploressl.criteria import (
    CriterionConfig,
    CriterionKind,
    js_criterion,
    minmax_criterion,
)
from exploressl.crp import CrpConfig, PickRule, crp_gibbs
from exploressl.data import SeedPartition, make_partitions
from exploressl.engine import EngineConfig, exploratory_em, semisup_em
from exploressl.evaluation import ConfusionMatrix, aligned_diagonal_weight, seed_macro_f1
from exploressl.models import ModelFamily, init_from_seeds
from exploressl.selection import SelectionCriterion, score_model
from exploressl.synth import SyntheticSpec, bayes_oracle_accuracy, generate_synthetic


def report(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number}: {status} {detail}".rstrip())
    assert ok, f"acceptance criterion {number} failed: {detail}"


def eval_f1(d, p, result):
    idx = sorted(p.unlabeled_idx)
    return seed_macro_f1(
        [int(result.final_state.assignments[i]) for i in idx],
        [d.gold_labels[i] for i in idx],
        p.seeded_class_ids,
    )


@pytest.fixture(scope="module")
def discovery_runs(five_block_dataset, five_block_partitions):
    """Shared by criteria 4 and 8: NB + JS exploratory runs plus the plain
    baseline over the ten 5%-seed partitions."""
    d = five_block_dataset
    runs = []
    for p in five_block_partitions:
        cfg = EngineConfig(
            family=ModelFamily.NB,
            criterion=CriterionConfig(CriterionKind.JS),
            rng_seed=p.rng_seed,
        )
        explo = exploratory_em(d, p, cfg)
        base = semisup_em(d, p, EngineConfig(family=ModelFamily.NB, rng_seed=p.rng_seed))
        runs.append((p, explo, base))
    return runs


def test_acceptance_1_reduction_identities():
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for seed in range(20):
        k = 2 + seed % 3
        d = generate_synthetic(
            SyntheticSpec(k + 1, 15, 30, separation=5.0, rng_seed=seed)
        )
        p = make_partitions(d, k, 0.1, 1, seed)[0]
        never = EngineConfig(
            family=ModelFamily.NB,
            criterion=CriterionConfig(CriterionKind.RANDOM, random_rate=0.0),
            rng_seed=seed,
        )
        a = exploratory_em(d, p, never)
        b = semisup_em(d, p, EngineConfig(family=ModelFamily.NB, rng_seed=seed))
        if not np.array_equal(a.final_state.assignments, b.final_state.assignments):
            ok, detail = False, f"assignments diverge on dataset seed {seed}"
            break
    if ok:
        # no unlabeled pool: one iteration, identical to the seed initializer
        d = generate_synthetic(SyntheticSpec(2, 10, 20, separation=5.0, rng_seed=99))
        p = SeedPartition(frozenset({0, 1}), frozenset(range(len(d))), frozenset(), 0)
        cfg = EngineConfig(
            family=ModelFamily.NB, criterion=CriterionConfig(CriterionKind.MINMAX)
        )
        r = exploratory_em(d, p, cfg)
        init = init_from_seeds(d, p, ModelFamily.NB)
        if not np.array_equal(r.final_state.assignments, init.assignments):
            ok, detail = False, "supervised run differs from the initializer"
    elapsed = time.perf_counter() - t0
    if ok and elapsed >= 60:
        ok, detail = False, f"runtime {elapsed:.1f}s exceeds 1 min"
    report(1, ok, detail or f"20 reduction identities + supervised case, {elapsed:.1f}s")


def test_acceptance_2_criterion_unit_suite():
    def js_oracle(p, q):
        m = [(a + b) / 2 for a, b in zip(p, q)]
        def kl(a, b):
            return sum(x * math.log(x / y) for x, y in zip(a, b) if x > 0)
        return 0.5 * kl(p, m) + 0.5 * kl(q, m)

    rng = np.random.default_rng(0)
    ok = True
    detail = ""
    for _ in range(150):
        k = int(rng.integers(2, 9))
        p = rng.dirichlet(np.full(k, rng.uniform(0.2, 3.0)))
        u = [1.0 / k] * k
        expected_js = js_oracle(u, list(p)) < 1.0 / k
        if js_criterion(p) != expected_js:
            ok, detail = False, "JS criterion disagrees with the summation oracle"
            break
        expected_mm = p.min() > 0 and p.max() / p.min() < 2.0
        if minmax_criterion(p) != expected_mm:
            ok, detail = False, "MinMax criterion disagrees with the direct ratio"
            break
    if ok:
        boundary = (
            minmax_criterion(np.array([0.5, 0.25, 0.25])) is False
            and minmax_criterion(np.full(4, 0.25)) is True
            and js_criterion(np.full(4, 0.25)) is True
        )
        if not boundary:
            ok, detail = False, "boundary cases wrong"
    report(2, ok, detail or "150 random posteriors + boundary cases")


def test_acceptance_3_model_selection_arithmetic():
    rng = np.random.default_rng(1)
    ok = True
    detail = ""
    checked = 0
    for _ in range(1000):
        L = float(rng.uniform(-1e5, 0))
        v = int(rng.integers(1, 500))
        # n > v + 2 keeps AICc defined for the v + 1 monotonicity probe too
        n = int(rng.integers(v + 3, v + 5000))
        expect = {
            SelectionCriterion.BIC: -2 * L + v * math.log(n),
            SelectionCriterion.AIC: -2 * L + 2 * v,
            SelectionCriterion.AICC: -2 * L + 2 * v + 2 * v * (v + 1) / (n - v - 1),
        }
        for crit, want in expect.items():
            got = score_model(L, v, n, crit).score
            if abs(got - want) > 1e-9 * max(1.0, abs(want)):
                ok, detail = False, f"{crit.value} off by {abs(got - want):.2e}"
                break
        if not ok:
            break
        # more parameters at equal likelihood always scores worse
        for crit in expect:
            s1 = score_model(L, v, n, crit).score
            s2 = score_model(L, v + 1, n, crit).score
            if not s2 > s1:
                ok, detail = False, f"{crit.value} not increasing in v"
                break
        if not ok:
            break
        # higher likelihood at equal complexity always scores better
        s_hi = score_model(L + 1.0, v, n, SelectionCriterion.BIC).score
        if not s_hi < score_model(L, v, n, SelectionCriterion.BIC).score:
            ok, detail = False, "BIC not decreasing in L"
            break
        checked += 1
    report(3, ok, detail or f"{checked} random (L, v, n) triples, 1e-9 relative")


def test_acceptance_4_synthetic_class_discovery(
    five_block_dataset, five_block_partitions, discovery_runs
):
    t0 = time.perf_counter()
    oracle = bayes_oracle_accuracy(
        SyntheticSpec(5, 60, 50, separation=1e6, rng_seed=1), num_draws=500
    )
    good = 0
    explo_f1s, base_f1s = [], []
    for p, explo, base in discovery_runs:
        m = explo.final_state.num_classes
        f1 = eval_f1(five_block_dataset, p, explo)
        explo_f1s.append(f1)
        base_f1s.append(eval_f1(five_block_dataset, p, base))
        if 4 <= m <= 8 and f1 >= 0.95:
            good += 1
    elapsed = time.perf_counter() - t0
    ok = oracle == 1.0 and good >= 8 and np.mean(base_f1s) < np.mean(explo_f1s)
    detail = (
        f"oracle acc {oracle:.3f}, {good}/10 partitions pass, "
        f"explore F1 {np.mean(explo_f1s):.3f} vs semisup {np.mean(base_f1s):.3f}, "
        f"{elapsed:.1f}s"
    )
    if elapsed >= 120:
        ok, detail = False, f"runtime {elapsed:.1f}s exceeds 2 min"
    report(4, ok, detail)


NEWSGROUPS_HINT = (
    "benchmark corpus not present at data/20news.txt; the published-protocol "
    "check (6 seed classes, 5% seeds, 10 partitions, spherical family with "
    "the ratio criterion) needs that preprocessed sparse file. Generate it "
    "offline and re-run; all other checks cover the pipeline on synthetic data."
)


def test_acceptance_5_benchmark_protocol():
    import os

    path = "data/20news.txt"
    if not os.path.exists(path):
        print(f"\nACCEPTANCE 5: SKIP {NEWSGROUPS_HINT}")
        pytest.skip(NEWSGROUPS_HINT)
    from exploressl.cli import main

    rc = main([
        "run", "--dataset", path, "--output", "data/20news_out",
        "--families", "kmeans", "--algorithms", "exploratory,semisup",
        "--criteria", "minmax", "--num-seed-classes", "6",
        "--seeds-fraction", "0.05", "--num-partitions", "10",
    ])
    import json

    summary = json.loads(open("data/20news_out/summary.json").read())
    explo = summary["cells"]["exploratory|kmeans|minmax|"]["mean_seed_f1"]
    base = summary["cells"]["semisup|kmeans||"]["mean_seed_f1"]
    ok = rc == 0 and explo - base >= 0.05 and abs(explo - 0.574) <= 0.10
    report(5, ok, f"explore {explo:.3f} vs semisup {base:.3f}")


def test_acceptance_6_alignment_oracle():
    def exhaustive(counts):
        r, c = counts.shape
        size = max(r, c)
        padded = np.zeros((size, size), dtype=np.int64)
        padded[:r, :c] = counts
        return max(
            sum(padded[perm[j], j] for j in range(size))
            for perm in permutations(range(size))
        )

    rng = np.random.default_rng(6)
    ok = True
    detail = ""
    for i in range(200):
        r = int(rng.integers(1, 7))
        c = int(rng.integers(1, 7))
        counts = rng.integers(0, 25, size=(r, c)).astype(np.int64)
        cm = ConfusionMatrix(counts, list(range(r)), list(range(c)))
        if aligned_diagonal_weight(cm) != exhaustive(counts):
            ok, detail = False, f"mismatch on random matrix {i} ({r}x{c})"
            break
    report(6, ok, detail or "200 random matrices up to 6x6, exact weights")


def test_acceptance_7_crp_comparison(five_block_dataset, five_block_partitions):
    t0 = time.perf_counter()
    d = five_block_dataset
    parts = five_block_partitions[:5]
    ok = True
    detail_bits = []
    for p_new in (1e-6, 1e-4, 1e-2):
        means = {}
        for pick in (PickRule.STANDARD, PickRule.MODIFIED):
            f1s = []
            for p in parts:
                cfg = CrpConfig(
                    p_new=p_new, num_epochs=30, pick=pick,
                    family=ModelFamily.NB, rng_seed=17,
                )
                r1 = crp_gibbs(d, p, cfg)
                f1s.append(eval_f1(d, p, r1))
            # determinism spot check on the first partition
            repeat = [
                crp_gibbs(d, parts[0], CrpConfig(
                    p_new=p_new, num_epochs=30, pick=pick,
                    family=ModelFamily.NB, rng_seed=17,
                )).final_state.assignments
                for _ in range(2)
            ]
            if not np.array_equal(repeat[0], repeat[1]):
                ok, detail_bits = False, ["nondeterministic under fixed seed"]
            means[pick] = float(np.mean(f1s))
        if means[PickRule.MODIFIED] < means[PickRule.STANDARD]:
            ok = False
            detail_bits.append(
                f"p_new={p_new:g}: modified {means[PickRule.MODIFIED]:.3f} "
                f"< standard {means[PickRule.STANDARD]:.3f}"
            )
        else:
            detail_bits.append(
                f"p_new={p_new:g}: {means[PickRule.MODIFIED]:.3f} >= "
                f"{means[PickRule.STANDARD]:.3f}"
            )
    elapsed = time.perf_counter() - t0
    if elapsed >= 300:
        ok, detail_bits = False, [f"runtime {elapsed:.1f}s exceeds 5 min"]
    report(7, ok, "; ".join(detail_bits) + f", {elapsed:.1f}s")


def test_acceptance_8_monotonicity_audit(discovery_runs):
    ok = True
    detail = ""
    audited = 0
    for p, explo, _ in discovery_runs:
        latch = explo.can_add_latched_at or 1
        tail = explo.ll_trace[latch - 1:]
        for a, b in zip(tail, tail[1:]):
            if b < a - 1e-8:
                ok, detail = False, (
                    f"LL drop {a - b:.3e} after latch on partition seed {p.rng_seed}"
                )
                break
        audited += 1
        if not ok:
            break
    report(8, ok, detail or f"fixed-class-count LL traces on {audited} runs")

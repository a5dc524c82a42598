from collections import Counter, defaultdict
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exploressl.evaluation import (
    ConfusionMatrix,
    SignificanceOutcome,
    align_confusion,
    aligned_diagonal_weight,
    build_confusion,
    evaluate_run,
    majority_label_clusters,
    paired_significance,
    per_class_prf,
    seed_macro_f1,
)


def exhaustive_diagonal(counts):
    """Best diagonal weight over all row permutations (square after padding)."""
    r, c = counts.shape
    size = max(r, c)
    padded = np.zeros((size, size), dtype=np.int64)
    padded[:r, :c] = counts
    best = -1
    for perm in permutations(range(size)):
        w = sum(padded[perm[j], j] for j in range(size))
        best = max(best, w)
    return best


class TestMajorityLabeling:
    def test_simple_majority(self):
        a = [0, 0, 0, 1, 1]
        y = [2, 2, 3, 4, 4]
        assert majority_label_clusters(a, y) == {0: 2, 1: 4}

    def test_tie_goes_to_lowest_gold_id(self):
        assert majority_label_clusters([0, 0], [5, 3]) == {0: 3}

    def test_many_to_one_allowed(self):
        a = [0, 1, 2]
        y = [7, 7, 7]
        assert majority_label_clusters(a, y) == {0: 7, 1: 7, 2: 7}

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            majority_label_clusters([0], [1, 2])

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=60)
    def test_majority_maximizes_accuracy(self, pairs):
        # among all cluster-to-class maps, the majority map has the most
        # correct predictions (checked by enumeration over small label sets)
        a = [p[0] for p in pairs]
        y = [p[1] for p in pairs]
        mapping = majority_label_clusters(a, y)
        acc = sum(1 for c, g in zip(a, y) if mapping[c] == g)
        clusters = sorted(set(a))
        labels = sorted(set(y))
        for combo in product(labels, repeat=len(clusters)):
            alt = dict(zip(clusters, combo))
            alt_acc = sum(1 for c, g in zip(a, y) if alt[c] == g)
            assert alt_acc <= acc


class TestPrf:
    def test_perfect(self):
        rows = per_class_prf([0, 0, 1, 1], [0, 0, 1, 1], [0, 1])
        for r in rows:
            assert r["precision"] == 1.0 and r["recall"] == 1.0 and r["f1"] == 1.0

    def test_hand_computed(self):
        # clusters: 0 -> label 0 (2 of 3), 1 -> label 1 (2 of 2)
        a = [0, 0, 0, 1, 1]
        y = [0, 0, 1, 1, 1]
        rows = per_class_prf(a, y, [0, 1])
        by = {r["class_id"]: r for r in rows}
        assert by[0]["precision"] == pytest.approx(2 / 3)
        assert by[0]["recall"] == pytest.approx(1.0)
        assert by[1]["precision"] == pytest.approx(1.0)
        assert by[1]["recall"] == pytest.approx(2 / 3)

    def test_absent_class_scores_zero(self):
        rows = per_class_prf([0, 0], [1, 1], [2])
        assert rows[0]["f1"] == 0.0 and rows[0]["support"] == 0

    def test_macro_mean(self):
        a = [0, 0, 0, 1, 1]
        y = [0, 0, 1, 1, 1]
        rows = per_class_prf(a, y, [0, 1])
        assert seed_macro_f1(a, y, [0, 1]) == pytest.approx(
            np.mean([r["f1"] for r in rows])
        )

    def test_macro_restricted_to_seeded(self):
        a = [0, 0, 1, 1, 2, 2]
        y = [0, 0, 1, 1, 2, 3]
        full = seed_macro_f1(a, y, [0, 1, 2])
        sub = seed_macro_f1(a, y, [0, 1])
        assert sub == pytest.approx(1.0)
        assert full < sub

    def test_empty_seeded_rejected(self):
        with pytest.raises(ValueError):
            seed_macro_f1([0], [0], [])


def loop_per_class_prf(assignments, gold_labels, class_ids):
    """per_class_prf as the O(n k) loop over instances computed it: the
    reference the confusion-matrix version must match exactly."""
    votes = defaultdict(Counter)
    for c, y in zip(assignments, gold_labels):
        votes[c][y] += 1
    mapping = {
        c: min(y for y, n in counter.items() if n == max(counter.values()))
        for c, counter in votes.items()
    }
    predicted = [mapping[c] for c in assignments]
    rows = []
    for c in sorted(class_ids):
        tp = sum(1 for p, y in zip(predicted, gold_labels) if p == c and y == c)
        fp = sum(1 for p, y in zip(predicted, gold_labels) if p == c and y != c)
        fn = sum(1 for p, y in zip(predicted, gold_labels) if p != c and y == c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        rows.append({"class_id": c, "precision": precision, "recall": recall, "f1": f1,
                     "support": tp + fn})
    return rows, mapping


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-1, 12), st.integers(0, 6)), max_size=60),
    st.sets(st.integers(0, 8), max_size=6),
)
def test_per_class_prf_matches_instance_loop(pairs, class_ids):
    a = [c for c, _ in pairs]
    y = [g for _, g in pairs]
    rows, mapping = loop_per_class_prf(a, y, class_ids)
    assert per_class_prf(a, y, class_ids) == rows  # same counts, same float formula
    assert majority_label_clusters(a, y) == mapping
    if class_ids:
        assert seed_macro_f1(a, y, class_ids) == float(np.mean([r["f1"] for r in rows]))
    cm = build_confusion(a, y)
    for (c, g), n in Counter(pairs).items():
        assert cm.counts[cm.row_ids.index(c), cm.col_ids.index(g)] == n
    assert cm.total() == len(pairs)


class TestAlignment:
    def test_identity_when_diagonal(self):
        cm = build_confusion([0, 1, 2], [0, 1, 2])
        out = align_confusion(cm)
        assert np.array_equal(out.counts, np.eye(3, dtype=np.int64))
        assert out.row_ids == [0, 1, 2]

    def test_swap_restored(self):
        # cluster 0 holds gold 1 and vice versa
        cm = build_confusion([0, 0, 1, 1], [1, 1, 0, 0])
        out = align_confusion(cm)
        assert np.array_equal(out.counts, 2 * np.eye(2, dtype=np.int64))
        assert out.row_ids == [1, 0]

    def test_rectangular_more_clusters(self):
        a = [0, 1, 2, 3]
        y = [0, 0, 1, 1]
        cm = build_confusion(a, y)
        out = align_confusion(cm)
        assert out.counts.sum() == cm.counts.sum()
        assert out.counts.shape[1] == 2

    def test_rectangular_fewer_clusters(self):
        a = [0, 0, 0]
        y = [0, 1, 2]
        cm = build_confusion(a, y)
        out = align_confusion(cm)
        assert out.counts.sum() == 3
        assert set(out.col_ids) == {0, 1, 2}

    def test_preserves_row_multisets(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            r = int(rng.integers(1, 7))
            c = int(rng.integers(1, 7))
            counts = rng.integers(0, 10, size=(r, c)).astype(np.int64)
            if not counts.any():
                counts[0, 0] = 1
            cm = ConfusionMatrix(counts, list(range(r)), list(range(c)))
            out = align_confusion(cm)
            assert out.counts.sum() == counts.sum()
            orig_rows = sorted(tuple(row) for row in counts if row.any())
            new_rows = sorted(
                tuple(row) for rid, row in zip(out.row_ids, out.counts)
                if rid is not None and row.any()
            )
            assert new_rows == orig_rows

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            r = int(rng.integers(1, 7))
            c = int(rng.integers(1, 7))
            counts = rng.integers(0, 12, size=(r, c)).astype(np.int64)
            cm = ConfusionMatrix(counts, list(range(r)), list(range(c)))
            assert aligned_diagonal_weight(cm) == exhaustive_diagonal(counts)

    def test_diagonal_not_worse_than_unaligned(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            r = int(rng.integers(1, 6))
            c = int(rng.integers(1, 6))
            counts = rng.integers(0, 9, size=(r, c)).astype(np.int64)
            if not counts.any():
                counts[0, 0] = 1
            cm = ConfusionMatrix(counts, list(range(r)), list(range(c)))
            unaligned = int(np.trace(counts))
            assert aligned_diagonal_weight(cm) >= unaligned

    def test_empty_rejected(self):
        cm = ConfusionMatrix(np.zeros((0, 0), dtype=np.int64), [], [])
        with pytest.raises(ValueError):
            align_confusion(cm)


class TestPairedSignificance:
    def test_identical_lists(self):
        r = paired_significance([0.5, 0.6, 0.7], [0.5, 0.6, 0.7])
        assert r.outcome is SignificanceOutcome.NONE
        assert r.p_value == 1.0
        assert r.marker() == ""

    def test_constant_nonzero_difference(self):
        r = paired_significance([0.9, 0.8], [0.8, 0.7])
        assert r.outcome is SignificanceOutcome.A_SIG
        assert r.p_value == 0.0
        assert r.marker() == "▲"

    def test_closed_form_two_pairs(self):
        # diffs = [0.1, 0.3]: t = mean/(sd/sqrt(2)) = 0.2/(0.1*sqrt(2)/sqrt(2)) = 2
        # two-sided p with 1 dof: 2*(1 - cdf_t(2)) = 0.2951672...
        r = paired_significance([0.6, 0.9], [0.5, 0.6])
        assert r.p_value == pytest.approx(0.2951672, abs=1e-6)
        assert r.outcome is SignificanceOutcome.NONE

    def test_b_side_significant(self):
        a = [0.50, 0.51, 0.49, 0.50, 0.52]
        b = [0.80, 0.82, 0.79, 0.81, 0.80]
        r = paired_significance(a, b)
        assert r.outcome is SignificanceOutcome.B_SIG
        assert r.mean_diff < 0

    def test_weak_marker(self):
        # engineered p in (0.05, 0.1): mark with the open triangle
        a = [0.60, 0.63, 0.58, 0.70]
        b = [0.55, 0.54, 0.56, 0.55]
        r = paired_significance(a, b, level=0.1)
        assert 0.05 < r.p_value < 0.1
        assert r.outcome is SignificanceOutcome.A_SIG
        assert r.marker() == "△"

    def test_length_checks(self):
        with pytest.raises(ValueError):
            paired_significance([0.1], [0.2, 0.3])
        with pytest.raises(ValueError):
            paired_significance([0.1], [0.2])

    @given(
        st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=10),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=50)
    def test_symmetry(self, xs, seed):
        rng = np.random.default_rng(seed)
        ys = [min(1.0, max(0.0, x + rng.normal(0, 0.1))) for x in xs]
        r1 = paired_significance(xs, ys)
        r2 = paired_significance(ys, xs)
        assert r1.p_value == pytest.approx(r2.p_value, abs=1e-12)
        assert r1.mean_diff == pytest.approx(-r2.mean_diff)


class TestEvaluateRun:
    def test_report_fields(self):
        rep = evaluate_run([0, 0, 1, 1], [0, 0, 1, 1], [0, 1])
        assert rep.macro_f1_seed == 1.0
        assert rep.num_clusters == 2
        assert rep.aligned_confusion.total() == 4

    def test_extra_clusters_counted(self):
        rep = evaluate_run([0, 1, 2, 3], [0, 0, 1, 1], [0, 1])
        assert rep.num_clusters == 4

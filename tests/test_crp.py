import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exploressl import engine
from exploressl.crp import (
    CrpConfig,
    PickRule,
    crp_gibbs,
    crp_pick_standard,
    mod_crp_pick,
    mod_new_class_probabilities,
    pick_chunk,
)
from exploressl.criteria import js_from_uniform
from exploressl.data import make_partitions
from exploressl.models import ModelFamily
from exploressl.synth import SyntheticSpec, generate_synthetic


def setup_run(seed=0, classes=3, seeded=2):
    d = generate_synthetic(SyntheticSpec(classes, 20, 24, separation=1e6, rng_seed=seed))
    p = make_partitions(d, seeded, 0.1, 1, seed)[0]
    return d, p


class TestStandardPick:
    def test_always_new_at_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            label, created = crp_pick_standard(1.0, np.array([0.5, 0.5]), rng)
            assert created and label == 2

    def test_never_new_at_zero(self):
        rng = np.random.default_rng(0)
        assert not any(
            crp_pick_standard(0.0, np.array([0.5, 0.5]), rng)[1] for _ in range(50)
        )

    def test_certain_posterior(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            label, created = crp_pick_standard(0.0, np.array([1.0, 0.0]), rng)
            assert label == 0 and not created


class TestModifiedPick:
    def test_q_clamps_to_one(self):
        # p_new/(k*d) = 0.01/(5*0.002) = 1
        post = _posterior_with_js(5, 0.002)
        assert mod_new_class_probabilities(0.01, post[:, None])[0] == pytest.approx(1.0, abs=1e-6)

    def test_q_hand_value(self):
        post = _posterior_with_js(10, 0.5)
        q = mod_new_class_probabilities(0.01, post[:, None])[0]
        assert q == pytest.approx(0.002, rel=1e-3)

    def test_uniform_always_spawns(self):
        rng = np.random.default_rng(0)
        post = np.full(4, 0.25)
        assert mod_new_class_probabilities(1e-9, post[:, None])[0] == 1.0
        label, created = mod_crp_pick(1e-9, post, rng)
        assert created and label == 4

    def test_tails_returns_existing(self):
        rng = np.random.default_rng(1)
        post = np.array([0.9, 0.05, 0.05])
        seen = set()
        for _ in range(200):
            label, created = mod_crp_pick(1e-9, post, rng)
            if not created:
                assert 0 <= label < 3
                seen.add(label)
        assert seen

    def test_q_monotone_in_d_and_k(self):
        for p_new in (1e-4, 1e-2):
            qs = [p_new / (5 * d) for d in (0.1, 0.2, 0.4)]
            assert qs == sorted(qs, reverse=True)
            # and directly over posteriors with growing divergence
            posts = [_posterior_with_js(4, d) for d in (0.05, 0.1, 0.3)]
            qvals = mod_new_class_probabilities(p_new, np.stack(posts, axis=1))
            assert all(a >= b for a, b in zip(qvals, qvals[1:]))
            # larger class count at equal divergence lowers q
            q_small = mod_new_class_probabilities(p_new, _posterior_with_js(3, 0.2)[:, None])[0]
            q_big = mod_new_class_probabilities(p_new, _posterior_with_js(8, 0.2)[:, None])[0]
            assert q_big <= q_small


def _posterior_with_js(k, target):
    """Posterior over k classes whose JS divergence from uniform is target
    (bisection on a one-parameter tilt)."""
    u = np.full(k, 1.0 / k)

    def tilt(t):
        p = u.copy()
        p[0] += t * (1.0 - 1.0 / k)
        p[1:] *= 1.0 - t
        p /= p.sum()
        return p

    lo, hi = 0.0, 1.0 - 1e-9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if js_from_uniform(tilt(mid)[:, None])[0] < target:
            lo = mid
        else:
            hi = mid
    p = tilt(0.5 * (lo + hi))
    assert js_from_uniform(p[:, None])[0] == pytest.approx(target, rel=1e-4)
    return p


class TestCrpGibbs:
    def test_vanishing_p_new_keeps_seed_classes(self):
        d, p = setup_run(0, classes=1, seeded=1)
        cfg = CrpConfig(p_new=1e-12, num_epochs=100, family=ModelFamily.NB, rng_seed=1)
        r = crp_gibbs(d, p, cfg)
        assert r.final_state.num_classes == 1

    def test_labeled_never_resampled(self):
        d, p = setup_run(1)
        cfg = CrpConfig(p_new=0.05, num_epochs=10, family=ModelFamily.NB, rng_seed=2)
        r = crp_gibbs(d, p, cfg)
        for i in p.labeled_idx:
            j = int(r.final_state.assignments[i])
            assert r.final_state.seed_class_ids[j] == d.gold_ids[i]

    def test_pruning_invariant(self):
        d, p = setup_run(2)
        cfg = CrpConfig(p_new=0.05, num_epochs=5, family=ModelFamily.NB, rng_seed=3)
        r = crp_gibbs(d, p, cfg)
        counts = np.bincount(
            r.final_state.assignments, minlength=r.final_state.num_classes
        )
        for j in range(r.final_state.num_classes):
            assert counts[j] > 0 or j < r.final_state.num_seeded

    def test_deterministic(self):
        d, p = setup_run(3)
        cfg = CrpConfig(p_new=0.01, num_epochs=8, family=ModelFamily.NB, rng_seed=4)
        a = crp_gibbs(d, p, cfg)
        b = crp_gibbs(d, p, cfg)
        assert np.array_equal(a.final_state.assignments, b.final_state.assignments)
        assert a.class_count_trace == b.class_count_trace

    def test_modified_pick_runs(self):
        d, p = setup_run(4)
        cfg = CrpConfig(
            p_new=0.01, num_epochs=5, pick=PickRule.MODIFIED,
            family=ModelFamily.NB, rng_seed=5,
        )
        r = crp_gibbs(d, p, cfg)
        assert r.iterations_run == 5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CrpConfig(p_new=0.0)
        with pytest.raises(ValueError):
            CrpConfig(p_new=0.5, num_epochs=0)


def _reference_pick(rule, p_new, post, rng):
    """The per-row pick loop: one crp_pick_standard or mod_crp_pick call
    (coin, then rng.choice on tails) per row until a row opens a class."""
    pick = crp_pick_standard if rule is PickRule.STANDARD else mod_crp_pick
    labels = []
    for r, row in enumerate(post):
        label, created = pick(p_new, row, rng)
        if created:
            return labels, r
        labels.append(label)
    return labels, None


def _assert_pick_matches_reference(rule, p_new, post, seed):
    """post holds one instance per row; pick_chunk takes it class-major, in
    either layout models.class_major gives."""
    ref_rng = np.random.default_rng(seed)
    ref_labels, ref_opened = _reference_pick(rule, p_new, post, ref_rng)
    for chunk in (np.ascontiguousarray(post.T), post.T):
        rng = np.random.default_rng(seed)
        labels, opens = pick_chunk(rule, p_new, chunk, rng)
        assert labels.tolist() == ref_labels
        assert (len(labels) if opens else None) == ref_opened
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    return ref_opened


@st.composite
def _chunks(draw):
    """(r, k) posterior chunks: dense rows, rows with exact zeros (cdf
    plateaus), peaked rows and exactly uniform rows, mixed per row."""
    r, k = draw(st.integers(1, 40)), draw(st.integers(1, 8))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = g.random((r, k))
    kind = g.integers(4, size=r)
    w[kind == 1] = np.where(g.random((np.sum(kind == 1), k)) < 0.5, 0.0, w[kind == 1])
    w[kind == 1, g.integers(k)] += 0.1  # keep one entry positive
    w[kind == 2] **= 8
    w[kind == 3] = 1.0
    return w / w.sum(axis=1, keepdims=True)


P_NEWS = st.one_of(
    st.sampled_from([1e-12, 1e-6, 1.0 - 1e-6, 1.0 - 1e-12]), st.floats(1e-6, 1.0 - 1e-6)
)


class TestPickChunk:
    @given(_chunks(), P_NEWS, st.sampled_from(list(PickRule)), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_row_pick(self, post, p_new, rule, seed):
        _assert_pick_matches_reference(rule, p_new, post, seed)

    @pytest.mark.parametrize(
        "rule,p_new,post,opened",
        [
            # k = 1: the standard rule draws the (forced) choice on tails
            (PickRule.STANDARD, 1e-12, np.ones((6, 1)), None),
            # and the modified rule sees d = 0, so q = 1
            (PickRule.MODIFIED, 1e-12, np.ones((6, 1)), 0),
            # uniform rows give q = 1 under the modified rule
            (PickRule.MODIFIED, 1e-12, np.full((5, 4), 0.25), 0),
            # p_new near 1 opens at row 0, near 0 at no row
            (PickRule.STANDARD, 1.0 - 1e-12, np.full((5, 3), 1 / 3), 0),
            (PickRule.STANDARD, 1e-12, np.tile([0.0, 0.5, 0.0, 0.5, 0.0], (30, 1)), None),
            # peaked rows (q about 1e-12) then a uniform one: opens at the last row
            (PickRule.MODIFIED, 1e-12,
             np.vstack([np.tile([1.0, 0.0, 0.0], (9, 1)), np.full((1, 3), 1 / 3)]), 9),
        ],
    )
    def test_edge_chunks(self, rule, p_new, post, opened):
        for seed in range(20):
            assert _assert_pick_matches_reference(rule, p_new, post, seed) == opened

    def test_sum_tolerance_per_rule(self):
        # rng.choice accepts a sum off by sqrt(eps) (about 1.5e-8); the JS
        # divergence of the modified rule accepts 1e-9
        post = np.array([[0.5], [0.5 + 1e-8]])
        labels, _ = pick_chunk(PickRule.STANDARD, 1e-12, post, np.random.default_rng(0))
        assert len(labels) == 1
        with pytest.raises(ValueError):
            pick_chunk(PickRule.MODIFIED, 1e-12, post, np.random.default_rng(0))


def _negative(post):
    post[:2, 0] = [post[0, 0] + post[1, 0] + 1e-3, -1e-3]


def _off_sum(post):
    post[:, -1] *= 1.0 + 1e-6


def _nan(post):
    post[0, 0] = np.nan


@pytest.mark.parametrize("rule", list(PickRule))
@pytest.mark.parametrize(
    "corrupt,error", [(_negative, ValueError), (_off_sum, ValueError), (_nan, FloatingPointError)]
)
def test_gibbs_rejects_bad_posterior_chunks(monkeypatch, rule, corrupt, error):
    chunk_posteriors = engine.posteriors

    def corrupted(state, scores):
        post = chunk_posteriors(state, scores)
        corrupt(post)
        return post

    monkeypatch.setattr(engine, "posteriors", corrupted)
    d, p = setup_run(5)
    cfg = CrpConfig(p_new=0.05, num_epochs=1, pick=rule, family=ModelFamily.NB, rng_seed=1)
    with pytest.raises(error):
        crp_gibbs(d, p, cfg)


@pytest.mark.parametrize("k", [1, 2, 5, 7, 20])
def test_seeded_start_draws_match_one_draw_per_row(k):
    """crp_gibbs draws the seeded-class start of all unlabeled rows in one
    call; it yields the values and leaves the generator state of one scalar
    rng.integers(k) call per row."""
    for n in (0, 1, 17, 3801):
        seq = np.random.SeedSequence([k, n, 11])
        one_per_row, at_once = np.random.default_rng(seq), np.random.default_rng(seq)
        scalar = np.array([one_per_row.integers(k) for _ in range(n)], dtype=np.int64)
        assert np.array_equal(at_once.integers(k, size=n), scalar)
        assert at_once.bit_generator.state == one_per_row.bit_generator.state

import math

import numpy as np
import pytest

from exploressl.data import Dataset, Norm, SeedPartition, SparseVector, normalize
from exploressl.models import (
    ModelFamily,
    ModelState,
    data_log_likelihood,
    free_parameter_count,
    init_from_seeds,
    init_new_class,
    m_step,
    posterior,
)


def dataset(rows, labels, vocab):
    return Dataset.from_rows([SparseVector.from_pairs(r) for r in rows], labels, vocab)


def partition(d, labeled, seeded):
    return SeedPartition(
        seeded_class_ids=frozenset(seeded),
        labeled_idx=frozenset(labeled),
        unlabeled_idx=frozenset(set(range(len(d))) - set(labeled)),
        rng_seed=0,
    )


def nb_state(word_probs, priors, assignments=()):
    word_probs = np.asarray(word_probs, dtype=np.float64)
    m, V = word_probs.shape
    return ModelState(
        ModelFamily.NB,
        V,
        np.log(word_probs),
        np.asarray(priors, dtype=np.float64),
        list(range(m)),
        np.asarray(assignments, dtype=np.int64),
    )


def kmeans_state(centroids, priors, assignments=()):
    centroids = np.asarray(centroids, dtype=np.float64)
    m, V = centroids.shape
    return ModelState(
        ModelFamily.KMEANS,
        V,
        centroids,
        np.asarray(priors, dtype=np.float64),
        list(range(m)),
        np.asarray(assignments, dtype=np.int64),
    )


class TestPosterior:
    def test_single_class(self):
        s = nb_state([[0.5, 0.5]], [1.0])
        p = posterior(s, SparseVector.from_pairs([(0, 3.0)]))
        assert p.tolist() == [1.0]

    def test_kmeans_symmetry(self):
        s = kmeans_state([[0.5, 0.5], [0.5, 0.5]], [0.5, 0.5])
        p = posterior(s, SparseVector.from_pairs([(0, 1.0)]))
        assert np.allclose(p, [0.5, 0.5])

    def test_nb_hand_bayes(self):
        s = nb_state([[0.9, 0.1], [0.1, 0.9]], [0.5, 0.5])
        p = posterior(s, SparseVector.from_pairs([(0, 1.0)]))
        assert np.allclose(p, [0.9, 0.1])

    def test_kmeans_all_zero_similarity_uniform(self):
        s = kmeans_state([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [0.7, 0.3])
        p = posterior(s, SparseVector.from_pairs([(2, 1.0)]))
        assert np.allclose(p, [0.5, 0.5])

    def test_sums_to_one_all_families(self):
        rng = np.random.default_rng(0)
        x = SparseVector.from_dense(rng.random(6))
        for fam in ModelFamily:
            vecs = rng.random((3, 6))
            if fam is ModelFamily.NB:
                vecs = np.log(vecs / vecs.sum(axis=1, keepdims=True))
            elif fam is ModelFamily.VMF:
                vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
            else:
                vecs = vecs / vecs.sum(axis=1, keepdims=True)
            s = ModelState(
                fam, 6, vecs, np.full(3, 1 / 3), [0, 1, 2],
                np.zeros(0, dtype=np.int64),
                kappas=np.array([2.0, 3.0, 4.0]) if fam is ModelFamily.VMF else None,
            )
            p = posterior(s, x)
            assert p.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(p >= 0)

    def test_permutation_equivariant(self):
        s = nb_state([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]], [0.2, 0.3, 0.5])
        x = SparseVector.from_pairs([(0, 2.0), (1, 1.0)])
        p = posterior(s, x)
        perm = [2, 0, 1]
        s2 = nb_state(np.exp(s.vectors)[perm], s.priors[perm])
        assert np.allclose(posterior(s2, x), p[perm])


class TestInitFromSeeds:
    def test_kmeans_single_seed_is_the_seed(self):
        rows = [[(0, 0.25), (1, 0.75)], [(1, 1.0)], [(0, 1.0)]]
        d = dataset(rows, [0, 1, None], 2)
        p = partition(d, labeled=[0, 1], seeded=[0, 1])
        s = init_from_seeds(d, p, ModelFamily.KMEANS)
        assert np.allclose(s.vectors[0], [0.25, 0.75])

    def test_nb_add_one_smoothing(self):
        d = dataset([[(0, 1.0)], [(1, 1.0)]], [0, 1], 2)
        p = partition(d, labeled=[0, 1], seeded=[0, 1])
        s = init_from_seeds(d, p, ModelFamily.NB)
        assert np.allclose(np.exp(s.vectors[0]), [2 / 3, 1 / 3])

    def test_vmf_antipodal_seeds_error(self):
        d = dataset([[(0, 1.0)], [(0, -1.0)]], [0, 0], 1)
        p = partition(d, labeled=[0, 1], seeded=[0])
        with pytest.raises(ValueError, match="cancel"):
            init_from_seeds(d, p, ModelFamily.VMF)

    def test_missing_seed_class_error(self):
        d = dataset([[(0, 1.0)]], [0], 2)
        p = SeedPartition(frozenset({0, 1}), frozenset({0}), frozenset(), 0)
        with pytest.raises(ValueError):
            init_from_seeds(d, p, ModelFamily.NB)

    def test_labeled_assignments_fixed(self):
        d = dataset([[(0, 1.0)], [(1, 1.0)], [(0, 2.0)]], [0, 1, None], 2)
        p = partition(d, labeled=[0, 1], seeded=[0, 1])
        s = init_from_seeds(d, p, ModelFamily.NB)
        assert s.assignments[0] == 0 and s.assignments[1] == 1
        assert s.assignments[2] == -1


class TestInitNewClass:
    def test_kmeans_smoothed(self):
        vector, kappa = init_new_class(SparseVector.from_dense([1.0, 0.0]), ModelFamily.KMEANS, 2)
        assert np.allclose(vector, [0.75, 0.25])
        assert kappa is None

    def test_vmf_exact_direction(self):
        x = normalize(SparseVector.from_dense([3.0, 4.0]), Norm.L2)
        vector, kappa = init_new_class(x, ModelFamily.VMF, 2, kappa_init=2.5)
        assert np.allclose(vector, [0.6, 0.8])
        assert kappa == 2.5

    def test_nb_smoothed(self):
        vector, _ = init_new_class(SparseVector.from_pairs([(0, 2.0)]), ModelFamily.NB, 2)
        assert np.allclose(np.exp(vector), [0.75, 0.25])

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            init_new_class(SparseVector.from_pairs([]), ModelFamily.NB, 2)

    def test_new_class_ranks_highest_for_its_point(self):
        rng = np.random.default_rng(2)
        for fam in (ModelFamily.KMEANS, ModelFamily.VMF):
            vecs = rng.random((2, 8))
            vecs[:, 4:] = 0.0  # existing classes live on the first half of the vocab
            if fam is ModelFamily.VMF:
                vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
            else:
                vecs = vecs / vecs.sum(axis=1, keepdims=True)
            s = ModelState(
                fam, 8, vecs, np.array([0.5, 0.5]), [0, 1],
                np.zeros(0, dtype=np.int64),
                kappas=np.array([5.0, 5.0]) if fam is ModelFamily.VMF else None,
            )
            x = rng.random(8)
            x[:4] = 0.0  # away from both centroids' mass
            x = x / (np.linalg.norm(x) if fam is ModelFamily.VMF else x.sum())
            xv = SparseVector.from_dense(x)
            s.add_class(init_new_class(xv, fam, 8, kappa_init=5.0), n_instances=10)
            assert int(np.argmax(posterior(s, xv))) == 2


class TestAddClass:
    def test_grown_state_matches_stacked_rows(self):
        rng = np.random.default_rng(0)
        s = kmeans_state([[0.5, 0.5, 0.0]], [1.0], assignments=[0])
        rows, priors = [s.vectors[0].copy()], s.priors.copy()
        for m in range(1, 40):
            params = init_new_class(SparseVector.from_dense(rng.random(3)), ModelFamily.KMEANS, 3)
            assert s.add_class(params, 50) == m
            p_new = 2.0 / (50 + m + 1)
            priors = np.append(priors * (1.0 - p_new), p_new)
            rows.append(params[0])
            assert s.vectors.shape == (m + 1, 3)
            assert np.array_equal(s.priors, priors)
        assert np.array_equal(s.vectors, np.vstack(rows))

    def test_earlier_vectors_never_overwritten(self):
        s = nb_state([[0.5, 0.5], [0.25, 0.75]], [0.5, 0.5], assignments=[0, 1])
        new = init_new_class(SparseVector.from_pairs([(0, 3.0)]), ModelFamily.NB, 2)
        s.add_class(new, 10)
        before = s.vectors
        kept = before.copy()
        s.truncate(2)
        s.add_class(init_new_class(SparseVector.from_pairs([(1, 3.0)]), ModelFamily.NB, 2), 10)
        shown = s.vectors
        shown_kept = shown.copy()
        s.add_class(new, 10)
        assert np.array_equal(before, kept)
        assert shown.shape == (3, 2) and s.vectors.shape == (4, 2)
        assert np.array_equal(shown, shown_kept)
        assert np.array_equal(s.vectors[:3], shown)


class TestMStep:
    def test_supervised_reduces_to_init(self):
        d = dataset([[(0, 2.0)], [(1, 3.0)]], [0, 1], 2)
        p = partition(d, labeled=[0, 1], seeded=[0, 1])
        s = init_from_seeds(d, p, ModelFamily.NB)
        s2 = m_step(s, d)
        assert np.allclose(s.vectors, s2.vectors)
        assert np.allclose(s.priors, s2.priors)

    def test_kmeans_centroid_is_mean(self):
        d = dataset([[(0, 1.0)], [(1, 1.0)]], [0, 0], 2)
        p = partition(d, labeled=[0, 1], seeded=[0])
        s = init_from_seeds(d, p, ModelFamily.KMEANS)
        s2 = m_step(s, d)
        assert np.allclose(s2.vectors[0], [0.5, 0.5])

    def test_empty_introduced_class_dropped(self):
        d = dataset([[(0, 1.0)], [(1, 1.0)]], [0, None], 2)
        p = partition(d, labeled=[0], seeded=[0])
        s = init_from_seeds(d, p, ModelFamily.NB)
        s.add_class(init_new_class(d.instances[1], ModelFamily.NB, 2), 2)
        s.assignments[1] = 0  # introduced class left empty
        s2 = m_step(s, d)
        assert s2.num_classes == 1

    def test_seeded_class_survives_without_unlabeled(self):
        d = dataset([[(0, 1.0)], [(1, 1.0)], [(1, 2.0)]], [0, 1, None], 2)
        p = partition(d, labeled=[0, 1], seeded=[0, 1])
        s = init_from_seeds(d, p, ModelFamily.NB)
        s.assignments[2] = 1
        s2 = m_step(s, d)
        assert s2.num_classes == 2

    def test_sole_member_gets_max_posterior(self):
        rows = [[(0, 3.0)], [(1, 3.0)], [(2, 3.0)]]
        d = dataset(rows, [0, 1, None], 3)
        p = partition(d, labeled=[0, 1], seeded=[0, 1])
        for fam in ModelFamily:
            dd = d
            if fam is not ModelFamily.NB:
                norm = Norm.L1 if fam is ModelFamily.KMEANS else Norm.L2
                dd = Dataset.from_rows(
                    [normalize(x, norm) for x in d.instances], d.gold_labels, 3
                )
            s = init_from_seeds(dd, p, fam)
            s.add_class(init_new_class(dd.instances[2], fam, 3), 3)
            s.assignments[2] = 2
            s2 = m_step(s, dd)
            assert int(np.argmax(posterior(s2, dd.instances[2]))) == 2


class TestDataLogLikelihood:
    def test_single_instance_nb(self):
        d = dataset([[(0, 1.0)]], [0], 2)
        s = nb_state([[0.5, 0.5]], [1.0], assignments=[0])
        assert data_log_likelihood(s, d) == pytest.approx(math.log(0.5))

    def test_nb_terms_nonpositive(self):
        d = dataset([[(0, 2.0)], [(1, 1.0)]], [0, 0], 2)
        s = nb_state([[0.3, 0.7]], [1.0], assignments=[0, 0])
        one = data_log_likelihood(nb_state([[0.3, 0.7]], [1.0], [0]),
                                  dataset([[(0, 2.0)]], [0], 2))
        both = data_log_likelihood(s, d)
        assert both < one  # adding an instance never increases the total

    def test_two_instance_hand_sum(self):
        d = dataset([[(0, 2.0)], [(1, 1.0)]], [0, 1], 2)
        s = nb_state([[0.9, 0.1], [0.2, 0.8]], [0.4, 0.6], assignments=[0, 1])
        expected = (math.log(0.4) + 2 * math.log(0.9)) + (math.log(0.6) + math.log(0.8))
        assert data_log_likelihood(s, d) == pytest.approx(expected, abs=1e-9)

    def test_kmeans_surrogate_finite_on_zero_similarity(self):
        d = dataset([[(2, 1.0)]], [0], 3)
        s = kmeans_state([[0.5, 0.5, 0.0]], [1.0], assignments=[0])
        assert math.isfinite(data_log_likelihood(s, d))


class TestFreeParameterCount:
    def test_nb(self):
        s = nb_state([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]], [0.5, 0.5])
        assert free_parameter_count(s) == 5

    def test_single_class_single_feature(self):
        s = nb_state([[1.0]], [1.0])
        assert free_parameter_count(s) == 0

    def test_vmf(self):
        s = ModelState(
            ModelFamily.VMF, 3,
            np.array([[1.0, 0, 0], [0, 1.0, 0]]),
            np.array([0.5, 0.5]), [0, 1],
            np.zeros(0, dtype=np.int64), kappas=np.array([1.0, 1.0]),
        )
        assert free_parameter_count(s) == 7

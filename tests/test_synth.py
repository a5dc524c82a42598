import hashlib

import numpy as np
import pytest

from exploressl.data import Norm, write_sparse_triplet
from exploressl.synth import (
    GeneratorFamily,
    SyntheticSpec,
    generate_synthetic,
    multinomial_class_distributions,
)
from reference import bayes_oracle_accuracy, norm


class TestClassDistributions:
    def test_rows_are_distributions(self):
        spec = SyntheticSpec(4, 1, 21, separation=3.0)
        dists = multinomial_class_distributions(spec)
        assert dists.shape == (4, 21)
        assert np.allclose(dists.sum(axis=1), 1.0)
        assert (dists > 0).all()

    def test_zero_separation_collapses(self):
        spec = SyntheticSpec(3, 1, 12, separation=0.0)
        dists = multinomial_class_distributions(spec)
        assert np.allclose(dists, 1.0 / 12)

    def test_large_separation_near_disjoint(self):
        spec = SyntheticSpec(2, 1, 10, separation=1e6)
        dists = multinomial_class_distributions(spec)
        # almost all class-0 mass on its own block
        assert dists[0, :5].sum() > 1 - 1e-5
        assert dists[1, 5:].sum() > 1 - 1e-5


class TestGenerator:
    def test_shape_and_balance(self):
        d = generate_synthetic(SyntheticSpec(3, 100, 30, separation=5.0, rng_seed=0))
        assert len(d) == 300
        assert d.vocab_size == 30
        assert np.bincount(d.gold_ids).tolist() == [100, 100, 100]

    def test_document_length(self):
        spec = SyntheticSpec(2, 10, 15, separation=2.0, doc_length=40, rng_seed=1)
        d = generate_synthetic(spec)
        for x in d.instances:
            assert x.data.sum() == pytest.approx(40)

    def test_deterministic(self):
        spec = SyntheticSpec(3, 20, 25, separation=2.0, rng_seed=4)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        for xa, xb in zip(a.instances, b.instances):
            assert np.array_equal(xa.indices, xb.indices)
            assert np.array_equal(xa.data, xb.data)

    def test_seed_changes_data(self):
        base = dict(num_classes=2, instances_per_class=20, vocab_size=25, separation=2.0)
        a = generate_synthetic(SyntheticSpec(**base, rng_seed=0))
        b = generate_synthetic(SyntheticSpec(**base, rng_seed=1))
        same = all(
            len(xa.indices) == len(xb.indices)
            and np.array_equal(xa.indices, xb.indices)
            and np.array_equal(xa.data, xb.data)
            for xa, xb in zip(a.instances, b.instances)
        )
        assert not same

    def test_hypersphere_unit_norms(self):
        spec = SyntheticSpec(
            3, 15, 20, separation=2.0, family=GeneratorFamily.HYPERSPHERE, rng_seed=2
        )
        d = generate_synthetic(spec)
        assert len(d) == 45
        for x in d.instances:
            assert norm(x, Norm.L2) == pytest.approx(1.0, abs=1e-9)

    # SHA-256 of the written corpus, captured before the data layer became
    # CSR-only: the benchmark's cached corpora depend on these bytes. The
    # hypersphere digest was captured again when the writer moved from 6
    # significant digits to repr, which reads back as the same float
    @pytest.mark.parametrize("spec,digest", [
        (SyntheticSpec(4, 25, 300, 3.0, rng_seed=7),
         "73f6f37ed4d02a1738d9b2c066ec9073daf7c1902b579f6c6fd9bd006570c0d2"),
        (SyntheticSpec(3, 10, 40, 1.5, family=GeneratorFamily.HYPERSPHERE, rng_seed=5),
         "0b2715fc3774daccf6a54220be575fd47ee6b87e80ba3feaabaa13ff16b18c51"),
    ])
    def test_written_corpus_bytes(self, tmp_path, spec, digest):
        path = tmp_path / "corpus.txt"
        write_sparse_triplet(generate_synthetic(spec), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(0, 5, 10, separation=1.0)
        with pytest.raises(ValueError):
            SyntheticSpec(2, 5, 10, separation=-1.0)
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="^separation must be finite$"):
                SyntheticSpec(2, 5, 10, separation=value)
            with pytest.raises(ValueError, match="^noise must be finite$"):
                SyntheticSpec(2, 5, 10, 1.0, GeneratorFamily.HYPERSPHERE, noise=value)

    @pytest.mark.parametrize("doc_length", [0, -3])
    def test_document_length_below_one_is_refused(self, doc_length):
        # a zero-length document has no words, so tf-idf drops every row
        with pytest.raises(ValueError, match="^doc_length must be positive$"):
            SyntheticSpec(2, 3, 10, separation=1.0, doc_length=doc_length)


class TestBayesOracle:
    def test_zero_separation_is_chance(self):
        spec = SyntheticSpec(2, 1, 20, separation=0.0, rng_seed=0)
        acc = bayes_oracle_accuracy(spec, num_draws=4000)
        assert acc == pytest.approx(0.5, abs=0.05)

    def test_disjoint_blocks_perfect(self):
        spec = SyntheticSpec(5, 1, 50, separation=1e6, rng_seed=1)
        assert bayes_oracle_accuracy(spec, num_draws=1000) == 1.0

    def test_monotone_in_separation(self):
        accs = [
            bayes_oracle_accuracy(
                SyntheticSpec(3, 1, 30, separation=s, rng_seed=2), num_draws=2000
            )
            for s in (0.0, 0.5, 5.0)
        ]
        assert accs[0] < accs[1] < accs[2]

    def test_rejects_hypersphere(self):
        spec = SyntheticSpec(
            2, 1, 10, separation=1.0, family=GeneratorFamily.HYPERSPHERE
        )
        with pytest.raises(ValueError):
            bayes_oracle_accuracy(spec)

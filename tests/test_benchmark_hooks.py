"""The benchmark's traced round patches library attributes by name
(benchmarks/measure.py), so every one of them must still exist, and each
name a per-layer count reads must still be called: a driver that routes
around one would read that count as 0."""

from pathlib import Path
from time import perf_counter

import pytest

from exploressl import data, engine, models
from exploressl.data import write_sparse_triplet
from exploressl.experiments import ExperimentSpec, run_experiment
from exploressl.synth import SyntheticSpec, generate_synthetic

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import measure
    from tracer import Tracer

    t = Tracer(perf_counter, 0.0)
    try:
        measure.install_setup_spans(t, {})
        measure.install_layer_spans(t, {})
        yield t
    finally:
        t.restore()


def test_every_patched_attribute_exists(tracer):
    assert engine.posterior is not models.posterior  # patched
    tracer.restore()
    assert engine.posterior is models.posterior
    assert data.Dataset.matrix.__qualname__ == "Dataset.matrix"


def test_every_counted_attribute_is_called(tracer, tmp_path):
    # three disjoint blocks, two of them seeded: the JS run opens a class
    corpus = tmp_path / "blocks.txt"
    write_sparse_triplet(generate_synthetic(SyntheticSpec(3, 20, 24, 1e6, rng_seed=2)), corpus)
    spec = ExperimentSpec(str(corpus), str(tmp_path / "out"), families=("nb",),
                          algorithms=("exploratory", "crp-standard"), criteria=("js",),
                          num_seed_classes=2, seeds_fraction=0.1, num_partitions=1,
                          crp_epochs=2)
    assert run_experiment(spec) == 0
    for key in ("engine.init_new_class", "engine.init_from_seeds", "engine.m_step",
                "crp.m_step", "engine.data_log_likelihood", "crp.data_log_likelihood",
                "engine.score_with_fallback", "engine.accept_exploratory"):
        assert tracer.calls[key] > 0, key

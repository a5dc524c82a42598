"""The benchmark's traced round patches library attributes by name
(benchmarks/measure.py), so every one of them must still exist."""

from pathlib import Path
from time import perf_counter

from exploressl import data, engine, models

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_every_patched_attribute_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import measure
    from tracer import Tracer

    t = Tracer(perf_counter, 0.0)
    try:
        measure.install_setup_spans(t, {})
        measure.install_layer_spans(t, {})
        assert engine.posterior is not models.posterior  # patched
    finally:
        t.restore()
    assert engine.posterior is models.posterior
    assert data.Dataset.matrix.__qualname__ == "Dataset.matrix"

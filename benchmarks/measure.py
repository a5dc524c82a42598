"""One benchmark run of one workload, in a fresh single-threaded process.

Started by run.py; prints report lines and, last, the result JSON. A round is
one call of exploressl.experiments.run_experiment on the workload's corpus.
Rounds repeat until --seconds have passed (at least MIN_ROUNDS). Every round
runs under a tracer with spans over the set-up calls only; with --trace 1 one
more round runs with spans over every layer.

Times are in reference-speed seconds (see SpeedProbe), which cancels much of
the speed change of a shared VM.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import pickle
import resource
import signal
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from checks import check_round, nb_log_likelihood, read_corpus
from tracer import Tracer
from workloads import (CRITERIA, CRP_EPOCHS, NUM_SEED_CLASSES, P_NEW, SEEDS_FRACTION,
                       WORKLOADS, use_checkout_source)

MIN_ROUNDS = 3
# set-up samples per round, the round's own plus replays (replay_setup):
# at least this many, and at least this much raw time
SETUP_MIN_SAMPLES = 2
SETUP_MIN_S = 1.2
PROBE_INTERVAL_S = 0.02
PROBE_REF_S = 0.0005  # one probe sample's time at reference speed


class SpeedProbe:
    """Samples the machine's speed while a piece runs.

    A SIGALRM timer runs a short fixed probe, a loop of small-array numpy
    calls like those the program's hot paths are made of, every
    PROBE_INTERVAL_S of wall time. A piece's reference-speed time is its wall
    time less the probe time inside it, scaled by PROBE_REF_S over the mean
    probe sample inside it. Sampling during the piece, not once after it, is
    needed because speed here changes within seconds, not only from one
    process to the next. A pure-Python loop is left out of the probe: it
    slows far less than the program does (README, probe study).
    """

    def __init__(self):
        self.spent = 0.0  # summed probe time so far
        self.count = 0  # probe samples so far
        self._m = np.linspace(0.0, 1.0, 20 * 32).reshape(20, 32)
        self._v = np.linspace(1.0, 2.0, 32)

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        for _ in range(60):
            s = self._m @ self._v
            s -= s.max()
            p = np.exp(s)
            p /= p.sum()
        self.spent += perf_counter() - t0
        self.count += 1

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> "Piece":
        return Piece(perf_counter(), self.spent, self.count)

    def raw_clock(self) -> float:
        """Wall time less the probe time so far: cheaper than mark()."""
        return perf_counter() - self.spent


@dataclass(slots=True)
class Piece:
    """Wall time, probe time and probe samples of a timed piece."""

    wall: float = 0.0
    spent: float = 0.0
    count: int = 0

    def __sub__(self, other: "Piece") -> "Piece":
        return Piece(self.wall - other.wall, self.spent - other.spent, self.count - other.count)

    def __add__(self, other: "Piece") -> "Piece":
        return Piece(self.wall + other.wall, self.spent + other.spent, self.count + other.count)

    @property
    def raw_s(self) -> float:
        return self.wall - self.spent

    def reference_s(self, fallback: "Piece") -> float:
        sampled = self if self.count else fallback
        return self.raw_s * PROBE_REF_S * sampled.count / sampled.spent


def keep(capture: dict, key: str) -> Callable:
    """on_call hook that keeps each call's arguments and result."""
    return lambda args, out: capture.setdefault(key, []).append((args, out))


def install_setup_spans(t: Tracer, capture: dict) -> None:
    """Spans over the set-up calls of run_experiment; they also keep what the
    output checks need (instance ids and partitions)."""
    from exploressl import experiments

    t.patch(experiments, "load_dataset", "data.load", keep(capture, "raw"))
    t.patch(experiments, "prepare_family_datasets", "data.prepare", keep(capture, "datasets"))
    t.patch(experiments, "make_partitions", "data.partitions", keep(capture, "partitions"))


def install_layer_spans(t: Tracer, capture: dict) -> None:
    """Spans at every other call one layer makes into another by name."""
    from exploressl import criteria, crp, data, engine, experiments

    def tally(key, value):
        def on_call(args, out):
            capture[key] = capture.get(key, 0) + value(out)
        return on_call

    t.patch(data.Dataset, "matrix", "data.matrix")
    t.patch(experiments, "build_tasks", "experiments", keep(capture, "tasks"))
    t.patch(experiments, "exploratory_em", "engine", keep(capture, "em"))
    t.patch(experiments, "semisup_em", "engine", keep(capture, "em"))
    t.patch(crp, "crp_gibbs", "crp", keep(capture, "gibbs"))
    t.patch(experiments, "seed_macro_f1", "evaluation.f1")
    for module in (engine, crp):
        t.patch(module, "posterior", "models.posterior")
        t.patch(module, "m_step", "models.m_step")
        t.patch(module, "data_log_likelihood", "models.loglik")
        t.patch(module, "init_from_seeds", "models.init")
        t.patch(module, "init_new_class", "models.init")
    for attr in ("js_criterion", "minmax_criterion"):
        t.patch(criteria, attr, "criteria.criterion", tally("fires", bool))
    t.patch(engine, "score_with_fallback", "selection")
    t.patch(engine, "accept_exploratory", "selection", tally("accepts", bool))
    for attr in ("crp_pick_standard", "mod_crp_pick"):
        t.patch(crp, attr, "crp.pick", tally("new_class_draws", lambda out: out[1]))


def run_round(run_experiment: Callable, spec, speed: SpeedProbe,
              layers: bool) -> tuple[Tracer, dict, Piece]:
    """One round under a tracer, with set-up spans always and every layer's
    spans if `layers`; returns the tracer, what its hooks kept and the whole
    round's piece. The set-up spans of an untraced round use the probe's
    mark() as clock, so each carries its own probe samples. The traced round
    wraps many small calls and uses the cheaper raw_clock()."""
    gc.collect()
    t = Tracer(speed.raw_clock, 0.0) if layers else Tracer(speed.mark, Piece())
    capture: dict = {}
    with speed:
        install_setup_spans(t, capture)
        if layers:
            install_layer_spans(t, capture)
        start = speed.mark()
        try:
            t.span("experiments", run_experiment)(spec)
        finally:
            t.restore()
        whole = speed.mark() - start
    return t, capture, whole


def replay_setup(experiments, spec, speed: SpeedProbe) -> Piece:
    """Makes run_experiment's three set-up calls once more, as it makes them,
    and returns their piece. A set-up piece holds few probe samples, so one
    per round leaves setup_s noisy."""
    gc.collect()
    with speed:
        start = speed.mark()
        raw = experiments.load_dataset(spec.dataset_path, spec.dataset_format)
        datasets = experiments.prepare_family_datasets(raw)
        experiments.make_partitions(datasets[experiments.ModelFamily.NB], spec.num_seed_classes,
                                    spec.seeds_fraction, spec.num_partitions, spec.rng_seed)
        return speed.mark() - start


def setup_piece(t: Tracer) -> Piece:
    return t.self_time["data.load"] + t.self_time["data.prepare"] + t.self_time["data.partitions"]


def layer_metrics(t: Tracer, capture: dict, scale: float) -> dict[str, tuple[float, str]]:
    c = t.calls
    s = {name: secs * scale for name, secs in t.self_time.items()}
    em = capture.get("em", [])
    seeded = sum(len(args[1].seeded_class_ids) for args, _ in em)
    kept = sum(out.final_state.num_classes for _, out in em) - seeded
    created = c["engine.init_new_class"]
    tasks = capture["tasks"][0][1]
    raw = capture["raw"][0][1]
    return {
        "data.load_s": (s.get("data.load", 0.0), "s"),
        "data.prepare_s": (s.get("data.prepare", 0.0), "s"),
        "data.partitions_s": (s.get("data.partitions", 0.0), "s"),
        "data.matrix_s": (s.get("data.matrix", 0.0), "s"),
        "data.nnz": (sum(x.nnz for x in raw.instances), "count"),
        "models.posterior_s": (s.get("models.posterior", 0.0), "s"),
        "models.posterior_calls": (c["engine.posterior"] + c["crp.posterior"], "count"),
        "models.m_step_s": (s.get("models.m_step", 0.0), "s"),
        "models.m_step_calls": (c["engine.m_step"] + c["crp.m_step"], "count"),
        "models.loglik_s": (s.get("models.loglik", 0.0), "s"),
        "models.loglik_calls": (c["engine.data_log_likelihood"] + c["crp.data_log_likelihood"],
                                "count"),
        "models.init_s": (s.get("models.init", 0.0), "s"),
        "models.new_classes": (created + c["crp.init_new_class"], "count"),
        "criteria.criterion_s": (s.get("criteria.criterion", 0.0), "s"),
        "criteria.criterion_calls": (c["criteria.js_criterion"] + c["criteria.minmax_criterion"],
                                     "count"),
        "criteria.fires": (capture.get("fires", 0), "count"),
        "selection.self_s": (s.get("selection", 0.0), "s"),
        "selection.gate_calls": (c["engine.accept_exploratory"], "count"),
        "selection.accepts": (capture.get("accepts", 0), "count"),
        "engine.self_s": (s.get("engine", 0.0), "s"),
        "engine.iterations": (sum(out.iterations_run for _, out in em), "count"),
        "engine.visits": (sum(out.iterations_run * len(args[1].unlabeled_idx)
                              for args, out in em), "count"),
        "engine.classes_kept_per_created": (kept / created if created else 0.0, "ratio"),
        "crp.self_s": (s.get("crp", 0.0), "s"),
        "crp.pick_s": (s.get("crp.pick", 0.0), "s"),
        "crp.pick_calls": (c["crp.crp_pick_standard"] + c["crp.mod_crp_pick"], "count"),
        "crp.new_class_draws": (capture.get("new_class_draws", 0), "count"),
        "evaluation.f1_s": (s.get("evaluation.f1", 0.0), "s"),
        "evaluation.f1_calls": (c["experiments.seed_macro_f1"], "count"),
        "experiments.self_s": (s.get("experiments", 0.0), "s"),
        "experiments.task_bytes": (
            statistics.mean(len(pickle.dumps(task)) for task in tasks), "bytes"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--corpus", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    use_checkout_source()
    from exploressl import experiments

    logging.basicConfig(level=logging.ERROR)
    w = WORKLOADS[args.workload]
    capped = {} if w.max_iterations is None else {"max_iterations": w.max_iterations}
    spec = experiments.ExperimentSpec(
        dataset_path=str(args.corpus),
        output_dir=str(args.out),
        families=w.families,
        algorithms=w.algorithms,
        criteria=CRITERIA,
        num_seed_classes=NUM_SEED_CLASSES,
        seeds_fraction=SEEDS_FRACTION,
        num_partitions=w.num_partitions,
        p_new=P_NEW,
        rng_seed=args.seed,
        crp_epochs=CRP_EPOCHS,
        workers=1,
        **capped,
    )
    corpus = read_corpus(args.corpus, with_counts=False)
    problems: list[str] = []
    setup, run, setup_raw, run_raw, visits = [], [], [], [], []
    attempted = failed = 0
    digests: dict[str, str] = {}
    f1: dict[str, float] = {}

    def checked(capture: dict) -> None:
        nonlocal attempted, failed, f1
        datasets = capture["datasets"][0][1]
        instance_ids = list(next(iter(datasets.values())).instance_ids)
        partitions = capture["partitions"][0][1]
        outcome = check_round(args.out, corpus, instance_ids, partitions,
                              w.cells_per_round(), problems)
        attempted += outcome.attempted
        failed += outcome.failed
        visits.append(outcome.visits)
        f1 = outcome.f1
        for name, digest in outcome.digests.items():
            if digests.setdefault(name, digest) != digest:
                problems.append(f"{name}: assignments differ between rounds")

    speed = SpeedProbe()
    started = perf_counter()
    while len(run) < MIN_ROUNDS or perf_counter() - started < args.seconds:
        t, capture, whole = run_round(experiments.run_experiment, spec, speed, layers=False)
        sampled = [setup_piece(t)]
        grid = whole - sampled[0]
        run_raw.append(grid.raw_s)
        run.append(grid.reference_s(whole))
        checked(capture)
        del t, capture  # the round's data must not outlive it: peak_rss_mb
        while len(sampled) < SETUP_MIN_SAMPLES or sum(p.raw_s for p in sampled) < SETUP_MIN_S:
            sampled.append(replay_setup(experiments, spec, speed))
        setup_raw.extend(p.raw_s for p in sampled)
        setup.extend(p.reference_s(whole) for p in sampled)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    run_s = statistics.median(run)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (run_s, "s"),
        "visits_per_s": (statistics.median(v / r for v, r in zip(visits, run)), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"# {args.workload} seed {args.seed}: {len(run)} rounds of "
          f"{w.cells_per_round()} cells, {len(setup)} set-ups; raw wall medians: setup "
          f"{statistics.median(setup_raw):.4f} s, run {statistics.median(run_raw):.4f} s")
    by_cell: dict[str, list[str]] = {}
    for name, value in sorted(f1.items()):
        by_cell.setdefault(name.rsplit("_part", 1)[0], []).append(f"{value:.4f}")
    for cell, values in by_cell.items():
        print(f"# seed F1 {cell}: {' '.join(values)}")

    if args.trace:
        counts = read_corpus(args.corpus, with_counts=True).counts
        t, capture, whole = run_round(experiments.run_experiment, spec, speed, layers=True)
        checked(capture)
        # self times exclude the probe time inside them; one factor, the
        # round's mean probe sample, takes them all to reference speed
        scale = PROBE_REF_S * whole.count / whole.spent
        if abs(sum(t.self_time.values()) - t.root) > 1e-6 * t.root:
            problems.append("span self times do not add up to the traced time")
        for args_, out in capture.get("em", []) + capture.get("gibbs", []):
            d, cfg = args_[0], args_[2]
            if cfg.family.value != "nb":
                continue
            rows = [int(iid) for iid in d.instance_ids]
            state = out.final_state
            mine = nb_log_likelihood(counts[rows], state.assignments, state.num_classes)
            if not np.isclose(mine, out.ll_trace[-1], rtol=1e-9, atol=0.0):
                problems.append(f"nb final log-likelihood {out.ll_trace[-1]!r}, "
                                f"independent fit {mine!r}")
        metrics = layer_metrics(t, capture, scale)
        total_s = t.root * scale
        metrics["trace.total_s"] = (total_s, "s")
        metrics["trace.overhead_s"] = (total_s - statistics.median(setup) - run_s, "s")

    for line in problems:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Experiment orchestration: grids over families, algorithms and criteria,
partition fan-out, and CSV/JSON report emission."""

from __future__ import annotations

import csv
import json
import logging
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from . import crp as crp_mod
from .criteria import CriterionConfig, CriterionKind
from .data import (
    Dataset,
    Norm,
    SeedPartition,
    _tfidf_weight,
    load_dataset,
    make_partitions,
    normalize_dataset,
    subset,
    write_label_map,
)
from .engine import EngineConfig, RunResult, calibrate_random_rate, exploratory_em, semisup_em
from .evaluation import eval_rows, paired_significance, seed_macro_f1
from .models import ModelFamily
from .selection import SelectionCriterion

log = logging.getLogger(__name__)

ALGORITHMS = ("exploratory", "semisup", "semisup-sweep", "crp-standard", "crp-modified")
SWEEP_M_VALUES = (0, 1, 2, 5, 10, 20, 40)
# the ExperimentSpec fields whose value (or each item of whose list) is one of
# a fixed set of names
CHOICES = {
    "dataset_format": ("sparse-triplet", "dense-csv"),  # what load_dataset reads
    "families": tuple(f.value for f in ModelFamily),
    "algorithms": ALGORITHMS,
    "criteria": tuple(c.value for c in CriterionKind),
    "selection": tuple(s.value for s in SelectionCriterion),
    "random_reference": (CriterionKind.MINMAX.value, CriterionKind.JS.value),
}
# the ExperimentSpec fields whose value (or each item of whose list) must lie
# in a range: the test and the range as the message gives it
RANGES = {
    "num_seed_classes": (lambda v: v >= 1, ">= 1"),
    "seeds_fraction": (lambda v: 0 < v < 1, "in (0, 1)"),
    "num_partitions": (lambda v: v >= 1, ">= 1"),
    "p_new": (lambda v: 0 < v < 1, "in (0, 1)"),
    "max_iterations": (lambda v: v >= 1, ">= 1"),
    "ll_rel_tolerance": (lambda v: v > 0, "> 0"),
    "crp_epochs": (lambda v: v >= 1, ">= 1"),
    "rng_seed": (lambda v: v >= 0, ">= 0"),
    "sweep_m_values": (lambda v: v >= 0, ">= 0"),
    "workers": (lambda v: v >= 1, ">= 1"),
}
# the list fields that some algorithms run once per item of, with those
# algorithms: an empty one would leave their cells with nothing to run
PER_ITEM = {
    "criteria": ("exploratory",),
    "p_new": ("crp-standard", "crp-modified"),
    "sweep_m_values": ("semisup-sweep",),
}


@dataclass
class ExperimentSpec:
    dataset_path: str
    output_dir: str
    dataset_format: str = "sparse-triplet"
    families: Sequence[str] = ("kmeans",)
    algorithms: Sequence[str] = ("exploratory", "semisup")
    criteria: Sequence[str] = ("minmax",)
    num_seed_classes: int = 2
    seeds_fraction: float = 0.05
    num_partitions: int = 10
    selection: str = EngineConfig.selection.value
    p_new: Sequence[float] = (1e-4,)
    rng_seed: int = 0
    max_iterations: int = EngineConfig.max_iterations
    ll_rel_tolerance: float = EngineConfig.ll_rel_tolerance
    crp_epochs: int = crp_mod.CrpConfig.num_epochs
    random_reference: str = "minmax"
    sweep_m_values: Sequence[int] = SWEEP_M_VALUES
    workers: int = 1
    include_seeds_in_eval: bool = False

    def __post_init__(self):
        for key in {**CHOICES, **RANGES}:
            check_value(key, getattr(self, key))
        for key in ("families", "algorithms"):
            if not len(getattr(self, key)):
                raise ValueError(f"{key}: none given, and a grid needs at least one")
        for key, users in PER_ITEM.items():
            needs = [a for a in self.algorithms if a in users]
            if needs and not len(getattr(self, key)):
                raise ValueError(f"{key}: none given, and algorithm {needs[0]} needs at least one")


def check_value(key: str, value) -> None:
    """ValueError naming the key unless value, or each item of a list value,
    is one of the key's CHOICES and lies in its RANGES; other keys pass."""
    for v in value if np.ndim(value) else [value]:  # a string has no dimension
        if key in CHOICES and v not in CHOICES[key]:
            raise ValueError(f"{key}: {v!r} is not one of {', '.join(CHOICES[key])}")
        if key in RANGES and not RANGES[key][0](v):
            raise ValueError(f"{key}: {v} is not {RANGES[key][1]}")


def derive_seed(root: int, *coords: int) -> int:
    """Per-run seed from the root seed and the run's grid coordinates."""
    ss = np.random.SeedSequence([root, *coords])
    return int(ss.generate_state(1)[0])


def prepare_family_datasets(raw: Dataset) -> dict[ModelFamily, Dataset]:
    """One representation per family over a shared instance set: raw counts
    for NB, L1-normalized TF-IDF for K-Means, L2-normalized TF-IDF for vMF.

    TF-IDF drops (all-zero reweighted instances) are applied to every
    representation, so instance indices agree across families."""
    weighted, kept = _tfidf_weight(raw)
    if len(kept) != len(raw):
        raw = subset(raw, kept)
    return {
        ModelFamily.NB: raw,
        ModelFamily.KMEANS: normalize_dataset(weighted, Norm.L1),
        ModelFamily.VMF: normalize_dataset(weighted, Norm.L2),
    }


# a pool worker's spec, partitions and dataset per family, set once by its
# initializer: tasks carry only their grid coordinates, so none of these is
# sent again with every task
_WORKER: dict = {}


def _init_worker(spec: ExperimentSpec, partitions: list[SeedPartition],
                 datasets: dict[ModelFamily, Dataset]) -> None:
    _WORKER.update(spec=spec, partitions=partitions, datasets=datasets)


def _run_in_worker(task: dict) -> dict:
    return _run_one(task, **_WORKER)


def _run_one(task: dict, spec: ExperimentSpec, partitions: list[SeedPartition],
             datasets: dict[ModelFamily, Dataset]) -> dict:
    """Execute one grid cell on one partition; returns a result row."""
    p = partitions[task["partition_index"]]
    family = ModelFamily(task["family"])
    d = datasets[family]
    algorithm = task["algorithm"]
    row = dict.fromkeys(CSV_COLUMNS, "")
    row.update(
        dataset=Path(spec.dataset_path).name,
        algorithm=algorithm,
        family=family.value,
        criterion=task["criterion"] or "",
        p_new=task["p_new"] if task["p_new"] is not None else "",
        partition=task["partition_index"],
    )
    try:
        t0 = time.perf_counter()
        run_seed = task["run_seed"]
        cfg = EngineConfig(
            family=family,
            selection=SelectionCriterion(spec.selection),
            max_iterations=spec.max_iterations,
            ll_rel_tolerance=spec.ll_rel_tolerance,
            rng_seed=run_seed,
        )
        # the rows every run is scored on, and the only read of test labels
        eval_idx, gold = eval_rows(d, p, spec.include_seeds_in_eval)

        def score(result: RunResult) -> float:
            assigned = result.final_state.assignments[eval_idx]
            return seed_macro_f1(assigned, gold, p.seeded_class_ids)

        if algorithm == "exploratory":
            kind = CriterionKind(task["criterion"])
            rate = (calibrate_random_rate(d, p, family, CriterionKind(spec.random_reference))
                    if kind is CriterionKind.RANDOM else None)
            result = exploratory_em(d, p, replace(cfg, criterion=CriterionConfig(kind, rate)))
        elif algorithm == "semisup":
            result = semisup_em(d, p, cfg)
        elif algorithm == "semisup-sweep":
            # oracle baseline: one run per extra-class count m, keeping the
            # first that scores best on the test labels, so an upper bound
            table, best_f1 = [], -1.0
            for m in spec.sweep_m_values:
                run = semisup_em(d, p, replace(cfg, extra_classes=m))
                f1 = score(run)
                table.append({"extra_classes": m, "seed_macro_f1": f1,
                              "clusters": run.final_state.num_classes,
                              "iterations": run.iterations_run})
                if f1 > best_f1:
                    result, best_f1 = run, f1
            row["sweep_table"] = table
        else:  # crp-standard or crp-modified
            result = crp_mod.crp_gibbs(d, p, crp_mod.CrpConfig(
                p_new=float(task["p_new"]), num_epochs=spec.crp_epochs, family=family,
                pick=crp_mod.PickRule(algorithm.removeprefix("crp-")), rng_seed=run_seed))
        row.update(
            seed_f1=f"{score(result):.6f}",
            clusters=result.final_state.num_classes,
            iterations=result.iterations_run,
            runtime_s=f"{time.perf_counter() - t0:.3f}",
        )
        row["assignments"] = result.final_state.assignments  # aligned with d.instance_ids
    except Exception as e:  # noqa: BLE001 - per-run failures become tagged rows
        log.exception("run failed: %s", row)
        row["error"] = f"{type(e).__name__}: {e}"
    return row


def build_tasks(spec: ExperimentSpec, partitions: list[SeedPartition]) -> list[dict]:
    """One task per grid cell and partition: its coordinates and run seed."""
    tasks = []
    for fi, family in enumerate(spec.families):
        for ai, algorithm in enumerate(spec.algorithms):
            crits = list(spec.criteria) if algorithm in PER_ITEM["criteria"] else [None]
            pnews = list(spec.p_new) if algorithm in PER_ITEM["p_new"] else [None]
            for ci, criterion in enumerate(crits):
                for ni, p_new in enumerate(pnews):
                    for pi in range(len(partitions)):
                        tasks.append({
                            "family": family, "algorithm": algorithm, "criterion": criterion,
                            "p_new": p_new, "partition_index": pi,
                            "run_seed": derive_seed(spec.rng_seed, fi, ai, ci, ni, pi),
                        })
    return tasks


CSV_COLUMNS = [
    "dataset", "algorithm", "family", "criterion", "p_new",
    "partition", "seed_f1", "clusters", "iterations", "runtime_s", "error",
]


def run_experiment(spec: ExperimentSpec) -> int:
    """Run the full grid x partitions; write per-run CSV rows, per-run
    assignment files and a summary JSON. Returns a process exit code
    (nonzero iff every run failed)."""
    raw = load_dataset(spec.dataset_path, spec.dataset_format)
    datasets = prepare_family_datasets(raw)
    any_d = datasets[ModelFamily.NB]
    partitions = make_partitions(
        any_d,
        spec.num_seed_classes,
        spec.seeds_fraction,
        spec.num_partitions,
        spec.rng_seed,
    )
    if "semisup-sweep" in spec.algorithms:
        most = max(spec.sweep_m_values)
        for pi, p in enumerate(partitions):
            if most > len(p.unlabeled_idx):
                raise ValueError(f"sweep_m_values: {most} exceeds the {len(p.unlabeled_idx)} "
                                 f"unlabeled instances of partition {pi}")
    tasks = build_tasks(spec, partitions)
    # every check that can reject the spec or the dataset has run by now, so
    # a failed run leaves no output directory behind
    out = Path(spec.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_label_map(raw, out / "label_map.csv")
    _write_partitions(partitions, any_d.instance_ids, spec.include_seeds_in_eval,
                      out / "partitions.json")

    if spec.workers > 1:
        with ProcessPoolExecutor(max_workers=spec.workers, initializer=_init_worker,
                                 initargs=(spec, partitions, datasets)) as pool:
            rows = list(pool.map(_run_in_worker, tasks))
    else:
        rows = [_run_one(t, spec, partitions, datasets) for t in tasks]

    _write_rows(rows, out / "runs.csv")
    _write_assignments(rows, out, any_d.instance_ids)
    summary = summarize(rows)
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    failed = sum(1 for r in rows if r["error"])
    log.info("%d/%d runs succeeded", len(rows) - failed, len(rows))
    return 1 if failed == len(rows) else 0


def _write_rows(rows: list[dict], path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _write_partitions(partitions: list[SeedPartition], instance_ids: list[str],
                      include_seeds: bool, path: Path) -> None:
    """partitions.json: each partition's seeded class ids and labeled
    instance ids, and whether runs were scored on the labeled rows too, so
    that `exploressl eval --partitions` scores the rows and classes a run's
    seed_f1 was computed on."""
    saved = {
        "include_seeds_in_eval": include_seeds,
        "partitions": [{"seeded_class_ids": p.seeded_class_ids.tolist(),
                        "labeled_instance_ids": [instance_ids[i] for i in p.labeled_idx]}
                       for p in partitions],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(saved, fh)


def _run_id(row: dict) -> str:
    bits = [row["algorithm"], row["family"]]
    if row["criterion"]:
        bits.append(str(row["criterion"]))
    if row["p_new"] != "":
        bits.append(f"pnew{row['p_new']:g}")
    bits.append(f"part{row['partition']}")
    return "_".join(bits)


def _write_assignments(rows: list[dict], out: Path, instance_ids: list[str]) -> None:
    """Per run, assign_<run id>.csv: each instance id (every family's dataset
    has the same instances, in the same order) with its final cluster.

    Each file holds the bytes csv.writer gives for the header
    instance_id,cluster and one (id, cluster) row per instance, CRLF line
    ends. The id column is the same in every file, so csv.writer formats it
    once: each row (id, "") is that id's prefix, quoted as csv quotes it,
    plus "\r\n". A file is one list [prefix, token, prefix, token, ...]
    joined, its token slots filled from a table of f"{cluster}\r\n", one
    entry per distinct cluster."""
    lines: list[str] = []
    csv.writer(SimpleNamespace(write=lines.append)).writerows((i, "") for i in instance_ids)
    parts: list[str] = [""] * (2 * len(lines))
    parts[0::2] = [line[:-2] for line in lines]  # each prefix without its "\r\n"
    for row in rows:
        sweep_table = row.pop("sweep_table", None)
        if sweep_table is not None:
            with open(out / f"sweep_{_run_id(row)}.json", "w", encoding="utf-8") as fh:
                json.dump(sweep_table, fh, indent=2)
        assignments = row.pop("assignments", None)
        if assignments is None:
            continue
        clusters, slot = np.unique(assignments, return_inverse=True)
        tokens = np.array([f"{c}\r\n" for c in clusters.tolist()], dtype=object)
        parts[1::2] = tokens[slot].tolist()
        with open(out / f"assign_{_run_id(row)}.csv", "w", encoding="utf-8",
                  newline="") as fh:
            fh.write("instance_id,cluster\r\n" + "".join(parts))


def _group_key(row: dict) -> tuple:
    return (row["algorithm"], row["family"], row["criterion"], str(row["p_new"]))


def summarize(rows: list[dict]) -> dict:
    """Group rows by grid cell; report mean F1 / cluster counts and paired
    significance of each cell against the same-family semisup baseline."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        if row["error"]:
            continue
        groups.setdefault(_group_key(row), []).append(row)

    cells = {}
    for key, members in sorted(groups.items()):
        f1s = [float(r["seed_f1"]) for r in members]
        cells["|".join(str(k) for k in key)] = {
            "algorithm": key[0],
            "family": key[1],
            "criterion": key[2],
            "p_new": key[3],
            "runs": len(members),
            "mean_seed_f1": float(np.mean(f1s)),
            "mean_clusters": float(np.mean([float(r["clusters"]) for r in members])),
            "per_partition_f1": f1s,
        }

    # significance markers vs the semisup baseline of the same family
    for cell in cells.values():
        if cell["algorithm"] == "semisup":
            continue
        base_key = "|".join(["semisup", cell["family"], "", ""])
        base = cells.get(base_key)
        if not base or len(base["per_partition_f1"]) != len(cell["per_partition_f1"]):
            continue
        if len(cell["per_partition_f1"]) < 2:
            continue
        sig = paired_significance(cell["per_partition_f1"], base["per_partition_f1"])
        cell["significance_vs_semisup"] = {
            "outcome": sig.outcome.value,
            "p_value": sig.p_value,
            "marker": sig.marker(),
        }

    errors = [
        {k: r[k] for k in ("algorithm", "family", "criterion", "partition", "error")}
        for r in rows
        if r["error"]
    ]
    return {"cells": cells, "errors": errors}

"""Command-line entry point: run experiment grids, generate synthetic data,
re-score saved assignments, and sweep the CRP concentration parameter."""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from dataclasses import MISSING, fields
from pathlib import Path

from .config import ConfigError, coerce, merge, parse_config
from .data import load_dataset, write_sparse_triplet
from .evaluation import evaluate_run
from .experiments import CHOICES, ExperimentSpec, run_experiment
from .synth import GeneratorFamily, SyntheticSpec, generate_synthetic

log = logging.getLogger(__name__)

RUN_DEFAULTS = {
    f.name: f.default for f in fields(ExperimentSpec) if f.default is not MISSING
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exploressl",
        description="Seeded clustering experiments with on-the-fly class discovery",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment grid")
    run.add_argument("--config", help="flat key = value config file")
    run.add_argument("--dataset", dest="dataset_path")
    run.add_argument("--format", dest="dataset_format", choices=CHOICES["dataset_format"])
    run.add_argument("--output", dest="output_dir")
    run.add_argument("--families", help="comma list: nb,kmeans,vmf")
    run.add_argument("--algorithms",
                     help="comma list: exploratory,semisup,semisup-sweep,"
                          "crp-standard,crp-modified")
    run.add_argument("--criteria", help="comma list: minmax,js,random")
    run.add_argument("--num-seed-classes", type=int, dest="num_seed_classes")
    run.add_argument("--seeds-fraction", type=float, dest="seeds_fraction")
    run.add_argument("--num-partitions", type=int, dest="num_partitions")
    run.add_argument("--model-selection", dest="selection",
                     choices=["aicc", "aic", "bic"])
    run.add_argument("--p-new", dest="p_new", help="comma list of floats")
    run.add_argument("--rng-seed", type=int, dest="rng_seed")
    run.add_argument("--max-iterations", type=int, dest="max_iterations")
    run.add_argument("--crp-epochs", type=int, dest="crp_epochs")
    run.add_argument("--workers", type=int)
    run.add_argument("--include-seeds-in-eval", action="store_const", const=True,
                     dest="include_seeds_in_eval")

    synth = sub.add_parser("synth", help="generate a synthetic dataset file")
    synth.add_argument("--classes", type=int, required=True)
    synth.add_argument("--per-class", type=int, required=True)
    synth.add_argument("--vocab", type=int, required=True)
    synth.add_argument("--separation", type=float, required=True)
    synth.add_argument("--family", choices=["multinomial", "hypersphere"],
                       default="multinomial")
    synth.add_argument("--doc-length", type=int, default=30)
    synth.add_argument("--noise", type=float, default=0.3)
    synth.add_argument("--rng-seed", type=int, default=0)
    synth.add_argument("--output", required=True)

    ev = sub.add_parser("eval", help="re-score a saved assignments file")
    ev.add_argument("--assignments", required=True,
                    help="CSV with columns instance_id,cluster")
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--format", default="sparse-triplet", choices=CHOICES["dataset_format"])
    ev.add_argument("--seed-classes", required=True,
                    help="comma list of dense class ids to average F1 over")
    ev.add_argument("--output", help="write the JSON report here (default stdout)")

    sweep = sub.add_parser("sweep-pnew", help="CRP concentration-parameter sweep")
    sweep.add_argument("--dataset", dest="dataset_path", required=True)
    sweep.add_argument("--format", dest="dataset_format", default="sparse-triplet",
                       choices=CHOICES["dataset_format"])
    sweep.add_argument("--output", dest="output_dir", required=True)
    sweep.add_argument("--p-new", dest="p_new", required=True,
                       help="comma list of floats")
    sweep.add_argument("--family", default="kmeans", choices=["nb", "kmeans", "vmf"])
    sweep.add_argument("--num-seed-classes", type=int, default=2)
    sweep.add_argument("--seeds-fraction", type=float, default=0.05)
    sweep.add_argument("--num-partitions", type=int, default=10)
    sweep.add_argument("--crp-epochs", type=int, default=50)
    sweep.add_argument("--rng-seed", type=int, default=0)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        file_values = parse_config(args.config) if args.config else {}
        flag_values = {
            k: coerce(k, v)
            for k, v in vars(args).items()
            if k in {**RUN_DEFAULTS, "dataset_path": None, "output_dir": None}
        }
    except ConfigError as e:
        raise SystemExit(f"run: {e}") from None
    values = merge(RUN_DEFAULTS, file_values, flag_values)
    if not values.get("dataset_path"):
        raise SystemExit("run: --dataset (or config key dataset_path) is required")
    if not values.get("output_dir"):
        raise SystemExit("run: --output (or config key output_dir) is required")
    try:
        spec = ExperimentSpec(**values)
    except ValueError as e:  # its message names the key
        raise SystemExit(f"run: {e}") from None
    return run_experiment(spec)


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = SyntheticSpec(
        num_classes=args.classes,
        instances_per_class=args.per_class,
        vocab_size=args.vocab,
        separation=args.separation,
        family=GeneratorFamily(args.family),
        rng_seed=args.rng_seed,
        doc_length=args.doc_length,
        noise=args.noise,
    )
    d = generate_synthetic(spec)
    write_sparse_triplet(d, args.output)
    log.info("wrote %d instances to %s", len(d), args.output)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    d = load_dataset(args.dataset, args.format)
    by_id = {iid: i for i, iid in enumerate(d.instance_ids)}
    assignments, gold = [], []
    with open(args.assignments, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            i = by_id.get(row["instance_id"])
            if i is None or d.gold_labels[i] is None:
                continue
            assignments.append(int(row["cluster"]))
            gold.append(d.gold_labels[i])
    seeded = [int(c) for c in args.seed_classes.split(",")]
    report = evaluate_run(assignments, gold, seeded)
    payload = {
        "macro_f1_seed": report.macro_f1_seed,
        "num_clusters": report.num_clusters,
        "per_class_prf": report.per_class_prf,
        "aligned_confusion": {
            "counts": report.aligned_confusion.counts.tolist(),
            "row_ids": report.aligned_confusion.row_ids,
            "col_ids": report.aligned_confusion.col_ids,
        },
    }
    text = json.dumps(payload, indent=2)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


def _cmd_sweep_pnew(args: argparse.Namespace) -> int:
    try:
        spec = ExperimentSpec(
            dataset_path=args.dataset_path,
            dataset_format=args.dataset_format,
            output_dir=args.output_dir,
            families=[args.family],
            algorithms=["semisup", "crp-standard", "crp-modified"],
            criteria=[],
            num_seed_classes=args.num_seed_classes,
            seeds_fraction=args.seeds_fraction,
            num_partitions=args.num_partitions,
            p_new=coerce("p_new", args.p_new),
            rng_seed=args.rng_seed,
            crp_epochs=args.crp_epochs,
        )
    except ValueError as e:  # its message names the key
        raise SystemExit(f"sweep-pnew: {e}") from None
    return run_experiment(spec)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "synth":
        return _cmd_synth(args)
    if args.command == "eval":
        return _cmd_eval(args)
    return _cmd_sweep_pnew(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point: run experiment grids, generate synthetic data,
re-score saved assignments, and sweep the CRP concentration parameter."""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

from .config import FIELD_TYPES, coerce, parse_config
from .data import DataFormatError, load_dataset, write_sparse_triplet
from .evaluation import evaluate_run
from .experiments import CHOICES, ExperimentSpec, run_experiment
from .synth import GeneratorFamily, SyntheticSpec, generate_synthetic

log = logging.getLogger(__name__)

# run's flag for each ExperimentSpec key: --<key with dashes>, but for four
RUN_FLAGS = {key: "--" + key.replace("_", "-") for key in FIELD_TYPES} | {
    "dataset_path": "--dataset", "output_dir": "--output",
    "dataset_format": "--format", "selection": "--model-selection",
}
# sweep-pnew is run without --config and with these values; its --family
# stands for --families
SWEEP_PNEW = {"algorithms": "semisup,crp-standard,crp-modified", "criteria": ""}
SWEEP_PNEW_FLAGS = {key: "--family" if key == "families" else flag
                    for key, flag in RUN_FLAGS.items() if key not in SWEEP_PNEW}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exploressl",
        description="Seeded clustering experiments with on-the-fly class discovery",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment grid")
    run.add_argument("--config", help="flat key = value config file")
    _add_spec_flags(run, RUN_FLAGS)

    synth = sub.add_parser("synth", help="generate a synthetic dataset file")
    synth.add_argument("--classes", dest="num_classes", type=int, required=True)
    synth.add_argument("--per-class", dest="instances_per_class", type=int, required=True)
    synth.add_argument("--vocab", dest="vocab_size", type=int, required=True)
    synth.add_argument("--separation", type=float, required=True)
    synth.add_argument("--family", choices=[f.value for f in GeneratorFamily])
    synth.add_argument("--doc-length", type=int)
    synth.add_argument("--noise", type=float)
    synth.add_argument("--rng-seed", type=int)
    synth.add_argument("--output", required=True)

    ev = sub.add_parser("eval", help="re-score a saved assignments file")
    ev.add_argument("--assignments", required=True,
                    help="CSV with columns instance_id,cluster")
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--format", choices=CHOICES["dataset_format"])
    scored = ev.add_mutually_exclusive_group(required=True)
    scored.add_argument("--seed-classes",
                        help="comma list of dense class ids to average F1 over, on every row")
    scored.add_argument("--partitions",
                        help="a run's partitions.json: score the classes and rows that run "
                             "scored on partition --partition")
    ev.add_argument("--partition", type=int, help="partition index within --partitions")
    ev.add_argument("--output", help="write the JSON report here (default stdout)")

    sweep = sub.add_parser("sweep-pnew", help="CRP concentration-parameter sweep")
    _add_spec_flags(sweep, SWEEP_PNEW_FLAGS, required=("dataset_path", "output_dir", "p_new"))
    return parser


def _add_spec_flags(parser, flags: dict, required=()) -> None:
    """One flag per ExperimentSpec key in flags. Its value stays a string
    for coerce; a bool key's flag takes no value and sets the key true."""
    for key, flag in flags.items():
        kind, names = FIELD_TYPES[key], ", ".join(CHOICES.get(key, ()))
        if kind == "bool":
            parser.add_argument(flag, dest=key, action="store_const", const="true")
            continue
        if kind.startswith("Sequence["):
            names = f"comma list of {names or kind[len('Sequence['):-1] + 's'}"
        elif names:
            names = f"one of {names}"
        parser.add_argument(flag, dest=key, required=key in required, help=names or None)


@contextmanager
def _reading(path):
    """A fault in reading a file as a ValueError whose message names it."""
    try:
        yield
    except OSError as e:
        raise ValueError(f"{e.filename or path}: {e.strerror or e}") from None
    except DataFormatError as e:
        raise ValueError(f"{path}: {e}") from None


def _experiment_spec(args: argparse.Namespace) -> ExperimentSpec:
    """The config file's values (run only), then the flags given, then
    sweep-pnew's preset, each parsed and checked by coerce; ExperimentSpec's
    defaults fill the keys left unset."""
    config = getattr(args, "config", None)  # sweep-pnew has no --config
    with _reading(config):
        values = parse_config(config) if config else {}
    given = {k: v for k, v in vars(args).items() if k in FIELD_TYPES and v is not None}
    preset = SWEEP_PNEW if args.command == "sweep-pnew" else {}
    values.update((k, coerce(k, v)) for k, v in {**given, **preset}.items())
    for key in ("dataset_path", "output_dir"):
        if not values.get(key):
            raise ValueError(f"{RUN_FLAGS[key]} (or config key {key}) is required")
    return ExperimentSpec(**values)


def _cmd_synth(args: argparse.Namespace) -> int:
    given = {f.name: getattr(args, f.name) for f in fields(SyntheticSpec)}
    if given["family"]:
        given["family"] = GeneratorFamily(given["family"])
    spec = SyntheticSpec(**{k: v for k, v in given.items() if v is not None})
    d = generate_synthetic(spec)
    write_sparse_triplet(d, args.output)
    log.info("wrote %d instances to %s", len(d), args.output)
    return 0


def _saved_partition(path: str, k: int) -> tuple[list[int], set[str]]:
    """Partition k of a partitions.json that run wrote: its seeded class ids,
    and the ids of the instances run did not score (its labeled ones, unless
    the run scored them too)."""
    with _reading(path), open(path, encoding="utf-8") as fh:
        try:
            saved = json.load(fh)
            parts = [(part["seeded_class_ids"], part["labeled_instance_ids"])
                     for part in saved["partitions"]]
            with_seeds = saved["include_seeds_in_eval"] is True
            # run writes distinct integer class ids and string instance ids
            for seeded, labeled in parts:
                if not (type(seeded) is list and all(type(c) is int for c in seeded)
                        and len(set(seeded)) == len(seeded)
                        and type(labeled) is list and all(type(i) is str for i in labeled)):
                    raise ValueError
        except (ValueError, KeyError, TypeError):
            raise DataFormatError("not a partitions.json that run writes") from None
    if not 0 <= k < len(parts):
        raise ValueError(f"--partition: {path} holds partitions 0 to {len(parts) - 1}, not {k}")
    seeded, labeled = parts[k]
    return seeded, set() if with_seeds else set(labeled)


def _cmd_eval(args: argparse.Namespace) -> int:
    if (args.partitions is None) != (args.partition is None):
        raise ValueError("--partitions and --partition go together")
    if args.partitions is not None:
        seeded, unscored = _saved_partition(args.partitions, args.partition)
    else:
        seeded, unscored = [], set()
        for token in args.seed_classes.split(","):
            try:
                seeded.append(int(token))
            except ValueError:
                raise ValueError(
                    f"--seed-classes: {token!r} is not an integer class id") from None
    with _reading(args.dataset):
        d = load_dataset(args.dataset, args.format or ExperimentSpec.dataset_format)
    class_ids = sorted(set(d.gold_ids.tolist()) - {-1})
    unknown = [c for c in seeded if c not in class_ids]
    if unknown:
        flag = "--seed-classes" if args.partitions is None else "--partitions"
        raise ValueError(f"{flag}: no row of {args.dataset} has class {unknown[0]}; "
                         f"its class ids are {', '.join(map(str, class_ids)) or 'none'}")
    by_id = {iid: i for i, iid in enumerate(d.instance_ids)}
    assignments, gold, seen = [], [], set()
    with _reading(args.assignments), open(args.assignments, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if not {"instance_id", "cluster"} <= set(reader.fieldnames or ()):
            raise DataFormatError("expected the columns instance_id,cluster")
        for row in reader:
            iid, cluster = row["instance_id"], row["cluster"]
            if iid in seen:
                raise DataFormatError(f"line {reader.line_num}: instance id {iid!r} repeats")
            seen.add(iid)
            try:
                cluster = int(cluster)
            except (TypeError, ValueError):  # a short row leaves None
                raise DataFormatError(
                    f"line {reader.line_num}: cluster {cluster!r} is not an integer") from None
            i = by_id.get(iid)
            if i is not None and d.gold_ids[i] >= 0 and iid not in unscored:
                assignments.append(cluster)
                gold.append(int(d.gold_ids[i]))
        if not gold:
            raise DataFormatError(f"no instance id matches a labeled row of {args.dataset}")
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.command == "synth":
            return _cmd_synth(args)
        if args.command == "eval":
            return _cmd_eval(args)
        spec = _experiment_spec(args)
        with _reading(spec.dataset_path):
            return run_experiment(spec)
    except ValueError as e:  # its message names the key, config line or file
        raise SystemExit(f"{args.command}: {e}") from None


if __name__ == "__main__":
    sys.exit(main())

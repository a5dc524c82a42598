"""Output checks for one grid round, computed by the benchmark's own code from
the corpus file and the files run_experiment writes, never from a stored
copy of earlier results."""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp


@dataclass
class Corpus:
    """The corpus file as the benchmark reads it: label strings per line and,
    on request, the raw count matrix (rows in file order)."""

    labels: list[str]
    counts: sp.csr_matrix | None


def read_corpus(path: Path, with_counts: bool) -> Corpus:
    labels: list[str] = []
    indptr, fids, vals = [0], [], []
    vocab = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("%%vocab"):
                vocab = int(line.split()[1])
                continue
            label, *entries = line.split()
            labels.append(label)
            if with_counts:
                for entry in entries:
                    fid, cnt = entry.split(":")
                    fids.append(int(fid))
                    vals.append(float(cnt))
                indptr.append(len(fids))
    counts = None
    if with_counts:
        counts = sp.csr_matrix((vals, fids, indptr), shape=(len(labels), vocab))
    return Corpus(labels, counts)


def assignment_file(row: dict) -> str:
    """File name of a run's assignments, as documented in the README."""
    bits = [row["algorithm"], row["family"]]
    if row["criterion"]:
        bits.append(row["criterion"])
    if row["p_new"]:
        bits.append(f"pnew{float(row['p_new']):g}")
    bits.append(f"part{row['partition']}")
    return "assign_" + "_".join(bits) + ".csv"


def seed_macro_f1(clusters: np.ndarray, gold: np.ndarray, seeded: list[int]) -> float:
    """Majority-vote labelling of clusters (ties to the lowest gold id), then
    the mean F1 over the seeded gold classes."""
    num_gold = int(gold.max()) + 1
    votes = np.zeros((int(clusters.max()) + 1, num_gold), dtype=np.int64)
    np.add.at(votes, (clusters, gold), 1)
    predicted = votes.argmax(axis=1)[clusters]  # argmax takes the lowest id on ties
    f1s = []
    for c in seeded:
        tp = int(np.sum((predicted == c) & (gold == c)))
        fp = int(np.sum((predicted == c) & (gold != c)))
        fn = int(np.sum((predicted != c) & (gold == c)))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    return float(np.mean(f1s))


@dataclass
class RoundOutcome:
    attempted: int
    failed: int
    visits: int  # unlabeled-instance visits over the cells that did not fail
    digests: dict[str, str]  # assignment file -> sha256
    f1: dict[str, float]  # assignment file -> reported seed F1


def check_round(out_dir: Path, corpus: Corpus, instance_ids: list[str], partitions,
                expected_cells: int, problems: list[str]) -> RoundOutcome:
    """Check one round's outputs; append a line to `problems` per failure."""
    with open(out_dir / "label_map.csv", encoding="utf-8", newline="") as fh:
        label_map = {r["label"]: int(r["class_id"]) for r in csv.DictReader(fh)}
    if sorted(label_map.values()) != list(range(len(label_map))) or \
            set(label_map) != set(corpus.labels):
        problems.append("label_map.csv is not a bijection onto the corpus labels")
        return RoundOutcome(expected_cells, 0, 0, {}, {})
    # instance ids are the corpus line numbers (load_dataset's default ids)
    gold_of = np.array([label_map[corpus.labels[int(iid)]] for iid in instance_ids])

    with open(out_dir / "runs.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != expected_cells:
        problems.append(f"runs.csv has {len(rows)} rows, expected {expected_cells}")
    failed = visits = 0
    digests, f1s = {}, {}
    for row in rows:
        if row["error"]:
            failed += 1
            continue
        name = assignment_file(row)
        where = out_dir / name
        if not where.is_file():
            problems.append(f"{name}: missing")
            continue
        p = partitions[int(row["partition"])]
        data = where.read_bytes()
        digests[name] = hashlib.sha256(data).hexdigest()
        lines = data.decode("utf-8").splitlines()
        assigned = dict(line.split(",") for line in lines[1:])
        cluster = np.array([int(assigned[iid]) for iid in instance_ids])
        num_clusters = int(row["clusters"])
        visits += int(row["iterations"]) * len(p.unlabeled_idx)

        if cluster.min() < 0 or cluster.max() >= num_clusters:
            problems.append(f"{name}: cluster id outside [0, {num_clusters})")
            continue
        seed_cluster = {}
        for i in p.labeled_idx:
            seed_cluster.setdefault(int(gold_of[i]), set()).add(int(cluster[i]))
        if any(len(s) != 1 for s in seed_cluster.values()) or \
                len({min(s) for s in seed_cluster.values()}) != len(seed_cluster):
            problems.append(f"{name}: seed instances left their seeded classes")
            continue
        members = np.bincount(cluster, minlength=num_clusters)
        seeded_clusters = {min(s) for s in seed_cluster.values()}
        empty = [j for j in range(num_clusters) if j not in seeded_clusters and members[j] == 0]
        if empty:
            problems.append(f"{name}: unseeded classes without members: {empty}")
        eval_idx = np.array(sorted(p.unlabeled_idx))
        mine = seed_macro_f1(cluster[eval_idx], gold_of[eval_idx], sorted(p.seeded_class_ids))
        f1s[name] = float(row["seed_f1"])
        if abs(mine - f1s[name]) > 5.1e-7:
            problems.append(f"{name}: reported seed F1 {row['seed_f1']}, recomputed {mine:.6f}")
    return RoundOutcome(expected_cells, failed, visits, digests, f1s)


def nb_log_likelihood(counts: sp.csr_matrix, assignments: np.ndarray, num_classes: int) -> float:
    """Complete-data log-likelihood of an add-one multinomial fit of hard
    assignments: add-one class priors over num_classes and add-one word
    probabilities per class."""
    n, vocab = counts.shape
    member = sp.csr_matrix((np.ones(n), (assignments, np.arange(n))), shape=(num_classes, n))
    word_sums = np.asarray((member @ counts).todense())
    log_words = np.log((word_sums + 1.0) / (word_sums.sum(axis=1, keepdims=True) + vocab))
    sizes = np.bincount(assignments, minlength=num_classes)
    log_priors = np.log((sizes + 1.0) / (n + num_classes))
    return float(sizes @ log_priors + np.sum(word_sums * log_words))

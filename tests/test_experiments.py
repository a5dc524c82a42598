import csv
import filecmp
import gc
import io
import json
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from exploressl import engine, experiments
from exploressl.cli import main
from exploressl.data import DataFormatError, Dataset, load_dataset, make_partitions
from exploressl.engine import semisup_em
from exploressl.evaluation import eval_rows, seed_macro_f1
from exploressl.experiments import ExperimentSpec, prepare_family_datasets, run_experiment
from exploressl.models import ModelFamily, m_step
from exploressl.synth import GeneratorFamily, SyntheticSpec, generate_synthetic


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "blocks.txt"
    assert main([
        "synth", "--classes", "4", "--per-class", "25", "--vocab", "40",
        "--separation", "1000000", "--rng-seed", "3", "--output", str(path),
    ]) == 0
    return path


def run_grid(dataset_file, out, workers):
    spec = ExperimentSpec(
        dataset_path=str(dataset_file), output_dir=str(out),
        families=("nb", "kmeans"), algorithms=("exploratory", "semisup", "crp-standard"),
        criteria=("minmax", "js", "random"), num_seed_classes=2, seeds_fraction=0.1,
        num_partitions=2, rng_seed=11, crp_epochs=3, workers=workers,
    )
    assert run_experiment(spec) == 0


def runs_without_runtime(out):
    with open(out / "runs.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for r in rows:
        r.pop("runtime_s")
    return rows


def test_parallel_grid_equals_serial(dataset_file, tmp_path):
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    run_grid(dataset_file, serial, workers=1)
    run_grid(dataset_file, parallel, workers=2)
    names = sorted(f.name for f in serial.glob("assign_*.csv"))
    # (exploratory x 3 criteria + semisup + crp-standard) x 2 families x 2 partitions
    assert len(names) == 20
    assert names == sorted(f.name for f in parallel.glob("assign_*.csv"))
    _, mismatch, errors = filecmp.cmpfiles(
        serial, parallel, names + ["summary.json", "label_map.csv", "partitions.json"],
        shallow=False)
    assert (mismatch, errors) == ([], [])
    assert runs_without_runtime(serial) == runs_without_runtime(parallel)


@pytest.mark.parametrize("workers", [1, 2])
def test_grid_keeps_no_dataset_alive(dataset_file, tmp_path, monkeypatch, workers):
    # a grid's datasets must be freed when it returns, or they stay in memory
    # while the next grid loads its own; a model state left alive would keep
    # its dataset's matrix, not the Dataset
    made = []

    def prepare(raw):
        datasets = prepare_family_datasets(raw)
        made.extend(weakref.ref(x) for d in datasets.values() for x in (d, d.matrix()))
        return datasets

    monkeypatch.setattr(experiments, "prepare_family_datasets", prepare)
    run_grid(dataset_file, tmp_path / "out", workers=workers)
    gc.collect()
    assert len(made) == 6 and all(ref() is None for ref in made)


def test_grid_fits_the_seeds_once_per_family_and_partition(dataset_file, tmp_path, monkeypatch):
    # every cell of a family and partition forks one seed start; only a
    # sweep run with extra classes fits the seeds again. Rows keep task order
    fits = []
    fit = engine.init_from_seeds
    monkeypatch.setattr(engine, "init_from_seeds",
                        lambda d, p, family: fits.append((family, p)) or fit(d, p, family))
    tasks = []
    build = experiments.build_tasks
    monkeypatch.setattr(experiments, "build_tasks",
                        lambda *args: tasks.extend(build(*args)) or tasks)
    spec = ExperimentSpec(
        dataset_path=str(dataset_file), output_dir=str(tmp_path), families=("nb", "kmeans"),
        algorithms=("exploratory", "semisup", "semisup-sweep"),
        criteria=("minmax", "js", "random"), num_seed_classes=2, seeds_fraction=0.1,
        num_partitions=2, sweep_m_values=(0, 2), rng_seed=5,
    )
    assert run_experiment(spec) == 0
    rows = runs_without_runtime(tmp_path)
    assert not any(r["error"] for r in rows)
    assert [(r["family"], r["algorithm"], r["criterion"], r["partition"]) for r in rows] == [
        (t["family"], t["algorithm"], t["criterion"] or "", str(t["partition_index"]))
        for t in tasks]
    # (family, partition) groups: one start each, plus the m = 2 sweep run
    assert len(fits) == 2 * 2 + 2 * 2
    assert len({(family, id(p)) for family, p in fits}) == 4


def test_a_sweep_run_of_m_0_after_semisup_refits_nothing(dataset_file, tmp_path, monkeypatch):
    # the sweep's m = 0 run is the semisup cell's run on the same seed start,
    # so every M-step it reaches is a fit the start already keeps
    fits = []
    monkeypatch.setattr(engine, "m_step", lambda state: fits.append(1) or m_step(state))
    per_run = []

    def counted(*args, **kwargs):
        before = len(fits)
        result = semisup_em(*args, **kwargs)
        per_run.append(len(fits) - before)
        return result

    monkeypatch.setattr(experiments, "semisup_em", counted)
    spec = ExperimentSpec(
        dataset_path=str(dataset_file), output_dir=str(tmp_path), families=("nb", "kmeans"),
        algorithms=("semisup", "semisup-sweep"), num_partitions=2, seeds_fraction=0.1,
        sweep_m_values=(0,),
    )
    assert run_experiment(spec) == 0
    # one (family, partition) group after another: the semisup cell, then the sweep
    assert len(per_run) == 8
    assert all(per_run[::2]) and per_run[1::2] == [0] * 4


def sweep_table(out, row):
    with open(out / f"sweep_semisup-sweep_{row['family']}_part{row['partition']}.json",
              encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("include_seeds", [False, True])
def test_sweep_of_m_0_scores_as_semisup(dataset_file, tmp_path, include_seeds):
    # with m = 0 alone, semisup-sweep fits semisup's model, which draws no
    # random numbers, so both must score it on the rows include_seeds_in_eval
    # picks and write the same assignments
    spec = ExperimentSpec(
        dataset_path=str(dataset_file), output_dir=str(tmp_path), families=("nb", "kmeans"),
        algorithms=("semisup", "semisup-sweep"), num_partitions=3, seeds_fraction=0.1,
        sweep_m_values=(0,), include_seeds_in_eval=include_seeds,
    )
    assert run_experiment(spec) == 0
    f1 = {}
    for r in runs_without_runtime(tmp_path):
        f1.setdefault(r["algorithm"], []).append((r["family"], r["partition"], r["seed_f1"]))
        if r["algorithm"] == "semisup-sweep":
            assert [t["extra_classes"] for t in sweep_table(tmp_path, r)] == [0]
    assert len(f1["semisup"]) == 6
    assert f1["semisup-sweep"] == f1["semisup"]
    for family, part, _ in f1["semisup"]:
        name = f"{family}_part{part}.csv"
        assert filecmp.cmp(tmp_path / f"assign_semisup_{name}",
                           tmp_path / f"assign_semisup-sweep_{name}", shallow=False)


def test_sweep_row_reports_the_best_m_run(dataset_file, tmp_path):
    # one sweep_*.json entry per m, in list order; runs.csv's sweep row holds
    # the seed F1, cluster count and iterations of the first best m's run, as
    # its entry reports them
    spec = ExperimentSpec(
        dataset_path=str(dataset_file), output_dir=str(tmp_path), families=("nb", "kmeans"),
        algorithms=("semisup-sweep",), num_partitions=2, seeds_fraction=0.1,
        sweep_m_values=(2, 0, 1),
    )
    assert run_experiment(spec) == 0
    rows = runs_without_runtime(tmp_path)
    assert len(rows) == 4
    for r in rows:
        table = sweep_table(tmp_path, r)
        assert [list(t) for t in table] == [
            ["extra_classes", "seed_macro_f1", "clusters", "iterations"]] * 3
        assert [t["extra_classes"] for t in table] == [2, 0, 1]
        best = max(table, key=lambda t: t["seed_macro_f1"])  # the first of equals
        assert (r["seed_f1"], r["clusters"], r["iterations"]) == (
            f"{best['seed_macro_f1']:.6f}", str(best["clusters"]), str(best["iterations"]))


def test_sweep_keeps_the_first_of_tied_runs(dataset_file, tmp_path, monkeypatch):
    # every m scores the same, so the row and its assignments are the first m's run
    runs = []

    def recorded(d, p, cfg):
        runs.append((cfg.extra_classes, semisup_em(d, p, cfg)))
        return runs[-1][1]

    monkeypatch.setattr(experiments, "semisup_em", recorded)
    monkeypatch.setattr(experiments, "seed_macro_f1", lambda *args: 0.5)
    spec = ExperimentSpec(
        dataset_path=str(dataset_file), output_dir=str(tmp_path), families=("nb",),
        algorithms=("semisup-sweep",), num_partitions=1, seeds_fraction=0.1,
        sweep_m_values=(3, 1, 2),
    )
    assert run_experiment(spec) == 0
    (row,) = runs_without_runtime(tmp_path)
    assert [m for m, _ in runs] == [3, 1, 2]
    first = runs[0][1]
    assert (row["seed_f1"], row["clusters"], row["iterations"]) == (
        "0.500000", str(first.final_state.num_classes), str(first.iterations_run))
    with open(tmp_path / "assign_semisup-sweep_nb_part0.csv", encoding="utf-8") as fh:
        clusters = [int(r["cluster"]) for r in csv.DictReader(fh)]
    assert clusters == first.final_state.assignments.tolist()


def test_every_successful_row_has_its_assignments_file(dataset_file, tmp_path, monkeypatch):
    # and the file re-scores to the row's seed F1 on the rows it was scored on
    drawn = []

    def partitions(*args):
        drawn.extend(make_partitions(*args))
        return drawn

    monkeypatch.setattr(experiments, "make_partitions", partitions)
    spec = ExperimentSpec(
        dataset_path=str(dataset_file), output_dir=str(tmp_path), families=("nb", "vmf"),
        algorithms=experiments.ALGORITHMS, criteria=("js", "random"), p_new=(1e-2,),
        num_partitions=2, seeds_fraction=0.1, sweep_m_values=(0, 2), crp_epochs=3,
        max_iterations=3,
    )
    assert run_experiment(spec) == 0
    d = prepare_family_datasets(load_dataset(str(dataset_file)))[ModelFamily.NB]
    rows = runs_without_runtime(tmp_path)
    assert len(rows) == 2 * 6 * 2 and not any(r["error"] for r in rows)
    for r in rows:
        r["p_new"] = float(r["p_new"]) if r["p_new"] else ""
        with open(tmp_path / f"assign_{experiments._run_id(r)}.csv", encoding="utf-8") as fh:
            clusters = np.array([int(x["cluster"]) for x in csv.DictReader(fh)])
        p = drawn[int(r["partition"])]
        eval_idx, gold = eval_rows(d, p)
        f1 = seed_macro_f1(clusters[eval_idx], gold, p.seeded_class_ids)
        assert f"{f1:.6f}" == r["seed_f1"]


def test_tasks_carry_no_dataset():
    # nor the spec or a partition: each worker gets those once, when it starts
    spec = ExperimentSpec(dataset_path="d.txt", output_dir="out", families=("nb", "vmf"))
    tasks = experiments.build_tasks(spec, partitions=[None])
    assert [t["family"] for t in tasks] == ["nb", "nb", "vmf", "vmf"]
    assert all(set(t) == {"family", "algorithm", "criterion", "p_new", "partition_index",
                          "run_seed"} for t in tasks)


@pytest.mark.parametrize("key, value, message", [
    ("num_partitions", 0, "num_partitions: 0 is not >= 1"),
    ("seeds_fraction", 0.0, "seeds_fraction: 0.0 is not in (0, 1)"),
    ("seeds_fraction", 1.0, "seeds_fraction: 1.0 is not in (0, 1)"),
    ("num_seed_classes", -1, "num_seed_classes: -1 is not >= 1"),
    ("max_iterations", 0, "max_iterations: 0 is not >= 1"),
    ("crp_epochs", 0, "crp_epochs: 0 is not >= 1"),
    ("ll_rel_tolerance", 0.0, "ll_rel_tolerance: 0.0 is not > 0"),
    ("ll_rel_tolerance", float("nan"), "ll_rel_tolerance: nan is not > 0"),
    ("p_new", (1e-4, 1.0), "p_new: 1.0 is not in (0, 1)"),
    ("rng_seed", -1, "rng_seed: -1 is not >= 0"),
    ("num_seed_classes", 0, "num_seed_classes: 0 is not >= 1"),
])
def test_spec_rejects_out_of_range_values(key, value, message):
    with pytest.raises(ValueError) as e:
        ExperimentSpec(dataset_path="d.txt", output_dir="out", **{key: value})
    assert str(e.value) == message


def test_spec_takes_the_range_limits_and_numpy_values():
    ExperimentSpec(dataset_path="d.txt", output_dir="out", num_partitions=1,
                   num_seed_classes=1, rng_seed=0, max_iterations=1, crp_epochs=1, seeds_fraction=0.5,
                   p_new=(1e-12, 0.999), ll_rel_tolerance=1e-300)
    ExperimentSpec(dataset_path="d.txt", output_dir="out", num_partitions=np.int64(2),
                   p_new=np.array([1e-3, 1e-2]), families=np.array(["nb", "vmf"]))
    # an empty list that no requested algorithm runs over
    ExperimentSpec(dataset_path="d.txt", output_dir="out", algorithms=("semisup",),
                   criteria=(), p_new=(), sweep_m_values=np.array([], dtype=int))
    with pytest.raises(ValueError, match="^num_partitions: 0 is not >= 1$"):
        ExperimentSpec(dataset_path="d.txt", output_dir="out", num_partitions=np.int64(0))


def csv_writer_assignments(instance_ids, assignments):
    """An assign_*.csv as csv.writer writes it row by row: the reference."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["instance_id", "cluster"])
    writer.writerows(zip(instance_ids, assignments.tolist()))
    return buf.getvalue().encode("utf-8")


def test_assignment_files_equal_csv_writer_output(tmp_path):
    ids = ["plain", "a,b", 'say "hi"', "cr\rhere", "lf\nhere", "crlf\r\n", " lead",
           "trail ", "naïve ☃", "", 7, 2.5, None, "x" * 40]
    rows = [
        {"algorithm": "exploratory", "family": "nb", "criterion": "js", "p_new": "",
         "partition": 0, "error": "", "assignments": np.arange(len(ids)) * 7},
        {"algorithm": "crp-standard", "family": "kmeans", "criterion": "", "p_new": 1e-4,
         "partition": 1, "error": "", "assignments": np.full(len(ids), 123)},
        {"algorithm": "semisup", "family": "vmf", "criterion": "", "p_new": "",
         "partition": 0, "error": "ValueError: failed"},
    ]
    expected = {
        "assign_exploratory_nb_js_part0.csv": csv_writer_assignments(ids, np.arange(len(ids)) * 7),
        "assign_crp-standard_kmeans_pnew0.0001_part1.csv":
            csv_writer_assignments(ids, np.full(len(ids), 123)),
    }
    experiments._write_assignments(rows, tmp_path, ids)
    # the row with an error writes no file
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted(expected)
    for name, data in expected.items():
        assert (tmp_path / name).read_bytes() == data


# ids that csv.writer writes as they are, and ids it quotes or formats
PLAIN_IDS = st.text(st.characters(codec="utf-8", exclude_characters=',"\r\n'), max_size=8)
ODD_IDS = st.one_of(
    st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "ï", "☃"]), max_size=8),
    st.sampled_from([",", '"', "\r", "\n", " x", "x ", "", 7, 2.5, None]),
)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.lists(PLAIN_IDS, max_size=30),
       st.lists(st.tuples(st.integers(0, 30), ODD_IDS), max_size=3))
def test_assignment_files_equal_csv_writer_output_for_any_ids(data, ids, odd):
    for at, i in odd:  # a few odd ids among plain ones, or none
        ids.insert(at, i)
    n = len(ids)
    runs = [np.array(data.draw(st.lists(st.integers(0, hi), min_size=n, max_size=n)),
                     dtype=np.int64) for hi in (3, 40)]
    rows = [{"algorithm": "exploratory", "family": "nb", "criterion": "js", "p_new": "",
             "partition": k, "error": "", "assignments": y} for k, y in enumerate(runs)]
    with tempfile.TemporaryDirectory() as out:
        experiments._write_assignments(rows, Path(out), ids)
        for k, y in enumerate(runs):
            got = (Path(out) / f"assign_exploratory_nb_js_part{k}.csv").read_bytes()
            assert got == csv_writer_assignments(ids, y)


def test_prepare_family_datasets_drops_the_same_rows_when_ids_repeat():
    # word 0 is in every row, so tf-idf empties row 0 alone; its id is also
    # row 1's, and every family must still keep rows 1 and 2 only
    raw = Dataset(sp.csr_matrix(np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])),
                  [0, 0, 1], instance_ids=["a", "a", "b"])
    datasets = prepare_family_datasets(raw)
    assert [len(d) for d in datasets.values()] == [2, 2, 2]
    assert all(d.instance_ids == ["a", "b"] for d in datasets.values())
    nb = datasets[ModelFamily.NB]
    assert (nb.matrix() != raw.matrix()[1:]).nnz == 0
    assert nb.gold_ids.tolist() == [0, 1]


def shares_structure(a: Dataset, b: Dataset) -> bool:
    """Whether a and b hold the same ids and row pointers in memory."""
    A, B = a.matrix(), b.matrix()
    return np.shares_memory(A.indices, B.indices) and np.shares_memory(A.indptr, B.indptr)


def test_family_datasets_share_one_index_structure():
    raw = generate_synthetic(SyntheticSpec(4, 20, 200, 3.0, rng_seed=2))
    datasets = prepare_family_datasets(raw)
    nb, kmeans, vmf = (datasets[f] for f in ModelFamily)
    assert nb is raw and kmeans.matrix().nnz == raw.matrix().nnz  # tf-idf dropped nothing
    assert shares_structure(nb, kmeans) and shares_structure(nb, vmf)
    assert not np.shares_memory(kmeans.matrix().data, vmf.matrix().data)


def test_a_word_in_every_row_gives_the_weighted_families_their_own_structure():
    X = generate_synthetic(SyntheticSpec(4, 20, 200, 3.0, rng_seed=2)).matrix().toarray()
    X[:, 0] += 1.0  # word 0 in every row: its idf is 0, so tf-idf drops it
    raw = Dataset(sp.csr_matrix(X), np.repeat(np.arange(4), 20))
    datasets = prepare_family_datasets(raw)
    nb, kmeans, vmf = (datasets[f] for f in ModelFamily)
    assert kmeans.matrix().nnz == raw.matrix().nnz - len(raw)
    assert not shares_structure(nb, kmeans)
    assert shares_structure(kmeans, vmf)
    assert all(not a.flags.writeable for d in datasets.values()
               for a in (d.matrix().data, d.matrix().indices, d.matrix().indptr))


@pytest.mark.xfail(strict=True, raises=DataFormatError, reason=(
    "a hypersphere row is dense, so every word is in every row and every idf "
    "is 0: no instance survives tf-idf weighting"))
def test_prepare_family_datasets_takes_a_hypersphere_corpus():
    d = generate_synthetic(SyntheticSpec(
        3, 10, 40, 1.5, family=GeneratorFamily.HYPERSPHERE, rng_seed=5))
    datasets = prepare_family_datasets(d)
    assert all(len(x) == len(d) for x in datasets.values())

import csv
import filecmp
import json
import re

import numpy as np
import pytest

from exploressl.cli import main
from exploressl.config import ConfigError, coerce, parse_config
from exploressl.data import load_dataset


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "blocks.txt"
    rc = main([
        "synth", "--classes", "3", "--per-class", "20", "--vocab", "24",
        "--separation", "1000000", "--rng-seed", "5", "--output", str(path),
    ])
    assert rc == 0
    return path


def read_runs(out_dir):
    with open(out_dir / "runs.csv", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


class TestSynthCommand:
    def test_roundtrip(self, dataset_file):
        d = load_dataset(dataset_file, "sparse-triplet")
        assert len(d) == 60
        assert d.vocab_size == 24
        assert np.bincount(d.gold_ids).tolist() == [20, 20, 20]

    @pytest.mark.parametrize("flags, message", [
        (["--classes", "0"], "num_classes, instances_per_class, vocab_size must be positive$"),
        (["--separation", "-1"], "separation must be non-negative$"),
        (["--rng-seed", "-1"], "rng_seed must be non-negative$"),
        (["--doc-length", "0"], "doc_length must be positive$"),
        (["--doc-length", "-3"], "doc_length must be positive$"),
        (["--separation", "nan"], "separation must be finite$"),
        (["--family", "hypersphere", "--noise", "inf"], "noise must be finite$"),
    ])
    def test_bad_spec_is_one_line_and_writes_nothing(self, tmp_path, flags, message):
        out = tmp_path / "d.txt"
        argv = ["synth", "--classes", "2", "--per-class", "3", "--vocab", "4",
                "--separation", "1", "--output", str(out)]
        with pytest.raises(SystemExit, match=f"^synth: {message}"):
            main([*argv, *flags])  # a repeated flag's last value wins
        assert not out.exists()


class TestRunCommand:
    def test_grid_row_counts(self, dataset_file, tmp_path):
        out = tmp_path / "out"
        rc = main([
            "run", "--dataset", str(dataset_file), "--output", str(out),
            "--families", "nb", "--algorithms", "exploratory,semisup",
            "--criteria", "minmax", "--num-partitions", "3",
            "--num-seed-classes", "2", "--seeds-fraction", "0.1",
        ])
        assert rc == 0
        rows = read_runs(out)
        # (exploratory x 1 criterion + semisup) x 3 partitions
        assert len(rows) == 6
        assert all(r["error"] == "" for r in rows)
        algos = {r["algorithm"] for r in rows}
        assert algos == {"exploratory", "semisup"}

    def test_summary_means(self, dataset_file, tmp_path):
        out = tmp_path / "out"
        main([
            "run", "--dataset", str(dataset_file), "--output", str(out),
            "--families", "nb", "--algorithms", "semisup",
            "--num-partitions", "3", "--seeds-fraction", "0.1",
        ])
        rows = read_runs(out)
        summary = json.loads((out / "summary.json").read_text())
        cell = summary["cells"]["semisup|nb||"]
        f1s = sorted(float(r["seed_f1"]) for r in rows)
        assert sorted(cell["per_partition_f1"]) == pytest.approx(f1s)
        assert cell["mean_seed_f1"] == pytest.approx(sum(f1s) / len(f1s))
        assert cell["runs"] == 3

    def test_significance_against_baseline_present(self, dataset_file, tmp_path):
        out = tmp_path / "out"
        main([
            "run", "--dataset", str(dataset_file), "--output", str(out),
            "--families", "nb", "--algorithms", "exploratory,semisup",
            "--criteria", "js", "--num-partitions", "3",
            "--seeds-fraction", "0.1",
        ])
        summary = json.loads((out / "summary.json").read_text())
        cell = summary["cells"]["exploratory|nb|js|"]
        assert "significance_vs_semisup" in cell
        assert cell["significance_vs_semisup"]["marker"] in ("", "▲", "△")

    def test_assignment_files_written(self, dataset_file, tmp_path):
        out = tmp_path / "out"
        main([
            "run", "--dataset", str(dataset_file), "--output", str(out),
            "--families", "nb", "--algorithms", "semisup",
            "--num-partitions", "2", "--seeds-fraction", "0.1",
        ])
        files = sorted(f.name for f in out.glob("assign_*.csv"))
        assert files == ["assign_semisup_nb_part0.csv", "assign_semisup_nb_part1.csv"]
        with open(out / files[0], encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 60
        assert set(rows[0]) == {"instance_id", "cluster"}

    def test_deterministic_outputs(self, dataset_file, tmp_path):
        # re-running the same grid reproduces runs.csv except wall times
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main([
                "run", "--dataset", str(dataset_file), "--output", str(out),
                "--families", "nb", "--algorithms", "exploratory,semisup",
                "--criteria", "minmax", "--num-partitions", "2",
                "--seeds-fraction", "0.1", "--rng-seed", "7",
            ])
            rows = read_runs(out)
            for r in rows:
                r.pop("runtime_s")
            outs.append(rows)
        assert outs[0] == outs[1]

    def test_config_file_with_flag_override(self, dataset_file, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "families = nb\n"
            "algorithms = semisup\n"
            "num_partitions = 4  # overridden below\n"
            "seeds_fraction = 0.1\n"
        )
        out = tmp_path / "out"
        main([
            "run", "--config", str(cfg), "--dataset", str(dataset_file),
            "--output", str(out), "--num-partitions", "2",
        ])
        rows = read_runs(out)
        assert len(rows) == 2  # the flag beats the file
        assert {r["family"] for r in rows} == {"nb"}  # a file value no flag sets survives

    def test_missing_dataset_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", "--output", str(tmp_path / "out")])

    @pytest.mark.parametrize("line, message", [
        ("num_partition = 3", "line 2: unknown key 'num_partition'"),
        ("max_iterations = abc", "line 2: max_iterations: "),
    ])
    def test_config_fault_is_one_line_with_its_line_number(
        self, dataset_file, tmp_path, line, message
    ):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"families = nb\n{line}\n")
        with pytest.raises(SystemExit, match=f"^run: {message}"):
            main(["run", "--config", str(cfg), "--dataset", str(dataset_file),
                  "--output", str(tmp_path / "out")])

    @pytest.mark.parametrize("flags, message", [
        (["--max-iterations", "abc"],
         "max_iterations: invalid literal for int\\(\\) with base 10: 'abc'$"),
        (["--model-selection", "aicx"], "selection: 'aicx' is not one of bic, aic, aicc$"),
    ])
    def test_bad_typed_flag_is_one_line_and_exits_1(self, dataset_file, tmp_path, flags, message):
        out = tmp_path / "out"
        with pytest.raises(SystemExit, match=f"^run: {message}") as e:
            main(["run", "--dataset", str(dataset_file), "--output", str(out), *flags])
        assert isinstance(e.value.code, str)  # printed with exit status 1; argparse exits 2
        assert not out.exists()

    def test_bad_flag_value_is_one_line(self, dataset_file, tmp_path):
        with pytest.raises(SystemExit, match="^run: p_new: "):
            main(["run", "--dataset", str(dataset_file), "--output", str(tmp_path / "out"),
                  "--p-new", "0.1,often"])

    @pytest.mark.parametrize("line, message", [
        ("selection = aicx", "line 2: selection: 'aicx' is not one of bic, aic, aicc$"),
        ("dataset_format = csv", "line 2: dataset_format: 'csv' is not one of "),
        ("algorithms = semisup, explore", "line 2: algorithms: 'explore' is not one of "),
        ("criteria = kl", "line 2: criteria: 'kl' is not one of minmax, js, random$"),
        ("random_reference = random", "line 2: random_reference: 'random' is not one of "),
    ])
    def test_config_invalid_choice_is_one_line_with_its_line_number(
        self, dataset_file, tmp_path, line, message
    ):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"families = nb\n{line}\n")
        with pytest.raises(SystemExit, match=f"^run: {message}"):
            main(["run", "--config", str(cfg), "--dataset", str(dataset_file),
                  "--output", str(tmp_path / "out")])

    def test_invalid_choice_flag_is_one_line(self, dataset_file, tmp_path):
        with pytest.raises(SystemExit, match="^run: families: 'nbx' is not one of nb, "):
            main(["run", "--dataset", str(dataset_file), "--output", str(tmp_path / "out"),
                  "--families", "nb,nbx"])

    @pytest.mark.parametrize("flags, message", [
        (["--num-partitions", "0"], "num_partitions: 0 is not >= 1$"),
        (["--seeds-fraction", "1"], "seeds_fraction: 1.0 is not in \\(0, 1\\)$"),
        (["--max-iterations", "0"], "max_iterations: 0 is not >= 1$"),
        (["--p-new", "0.1,0"], "p_new: 0.0 is not in \\(0, 1\\)$"),
        (["--rng-seed", "-1"], "rng_seed: -1 is not >= 0$"),
        (["--num-seed-classes", "0"], "num_seed_classes: 0 is not >= 1$"),
        # the dataset has 3 classes, which only drawing the partitions checks
        (["--num-seed-classes", "4"], "num_seed_classes=4 exceeds 3 distinct classes$"),
        (["--algorithms", "semisup-sweep", "--sweep-m-values=-1"],
         "sweep_m_values: -1 is not >= 0$"),
        (["--sweep-m-values", "0,2,-3"], "sweep_m_values: -3 is not >= 0$"),
        (["--workers", "0"], "workers: 0 is not >= 1$"),
        (["--workers=-2"], "workers: -2 is not >= 1$"),
        # a grid in which some cell would have nothing to run
        (["--algorithms", "semisup-sweep", "--sweep-m-values="],
         "sweep_m_values: none given, and algorithm semisup-sweep needs at least one$"),
        # the 60-row dataset leaves 58 unlabeled rows, which only drawing the
        # partitions checks
        (["--algorithms", "semisup-sweep", "--sweep-m-values", "0,100"],
         "sweep_m_values: 100 exceeds the 58 unlabeled instances of partition 0$"),
        (["--criteria="], "criteria: none given, and algorithm exploratory needs at least one$"),
        (["--families="], "families: none given, and a grid needs at least one$"),
        (["--algorithms="], "algorithms: none given, and a grid needs at least one$"),
        (["--algorithms", "crp-standard", "--p-new="],
         "p_new: none given, and algorithm crp-standard needs at least one$"),
    ])
    def test_out_of_range_flag_fails_before_any_file(
        self, dataset_file, tmp_path, flags, message
    ):
        out = tmp_path / "out"
        with pytest.raises(SystemExit, match=f"^run: {message}"):
            main(["run", "--dataset", str(dataset_file), "--output", str(out), *flags])
        assert not out.exists()

    def test_out_of_range_config_value_is_one_line_with_its_line_number(
        self, dataset_file, tmp_path
    ):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("families = nb\nll_rel_tolerance = 0\n")
        out = tmp_path / "out"
        with pytest.raises(SystemExit, match="^run: line 2: ll_rel_tolerance: 0.0 is not > 0$"):
            main(["run", "--config", str(cfg), "--dataset", str(dataset_file),
                  "--output", str(out)])
        assert not out.exists()

    def test_negative_seed_in_config_fails_before_any_file(self, dataset_file, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("families = nb\nrng_seed = -1\n")
        out = tmp_path / "out"
        with pytest.raises(SystemExit, match="^run: line 2: rng_seed: -1 is not >= 0$"):
            main(["run", "--config", str(cfg), "--dataset", str(dataset_file),
                  "--output", str(out)])
        assert not out.exists()


# a dataset file with a malformed entry, and a path with no file
BAD_DATASETS = [("a 1:x\n", "line 1: malformed entry '1:x'"),
                (None, "No such file or directory")]


def bad_file(tmp_path, text):
    path = tmp_path / "bad.txt"
    if text is not None:
        path.write_text(text)
    return path


class TestFileFaults:
    """A file that cannot be read gives '<command>: <path>: <message>'."""

    @pytest.mark.parametrize("text, message", BAD_DATASETS)
    @pytest.mark.parametrize("command, flags", [("run", []), ("sweep-pnew", ["--p-new", "0.1"])])
    def test_bad_dataset_leaves_no_output(self, tmp_path, command, flags, text, message):
        path, out = bad_file(tmp_path, text), tmp_path / "out"
        with pytest.raises(SystemExit, match=f"^{command}: {re.escape(f'{path}: {message}')}$"):
            main([command, "--dataset", str(path), "--output", str(out), *flags])
        assert not out.exists()

    @pytest.mark.parametrize("text, message", BAD_DATASETS)
    def test_eval_bad_dataset(self, dataset_file, tmp_path, text, message):
        path = bad_file(tmp_path, text)
        with pytest.raises(SystemExit, match=f"^eval: {re.escape(f'{path}: {message}')}$"):
            main(["eval", "--assignments", str(dataset_file), "--dataset", str(path),
                  "--seed-classes", "0"])

    @pytest.mark.parametrize("text, message", [
        ("instance_id,clusters\n0,1\n", "expected the columns instance_id,cluster"),
        (None, "No such file or directory"),
        ("instance_id,cluster\n0,1\n1,0\n0,1\n", "line 4: instance id '0' repeats"),
        ("instance_id,cluster\nx,1\nx,2\n", "line 3: instance id 'x' repeats"),
        ("instance_id,cluster\n0,1\n1,one\n", "line 3: cluster 'one' is not an integer"),
        ("instance_id,cluster\n0,1.0\n", "line 2: cluster '1.0' is not an integer"),
        ("instance_id,cluster\n0\n", "line 2: cluster None is not an integer"),
    ])
    def test_eval_bad_assignments(self, dataset_file, tmp_path, text, message):
        path = bad_file(tmp_path, text)
        with pytest.raises(SystemExit, match=f"^eval: {re.escape(f'{path}: {message}')}$"):
            main(["eval", "--assignments", str(path), "--dataset", str(dataset_file),
                  "--seed-classes", "0"])

    @pytest.mark.parametrize("text", [
        "instance_id,cluster\n",  # the header alone
        "instance_id,cluster\nx,1\n60,0\n",  # ids the dataset does not have
    ])
    def test_eval_without_a_labeled_match_names_both_files(self, dataset_file, tmp_path, text):
        path, report = bad_file(tmp_path, text), tmp_path / "report.json"
        message = f"{path}: no instance id matches a labeled row of {dataset_file}"
        with pytest.raises(SystemExit, match=f"^eval: {re.escape(message)}$"):
            main(["eval", "--assignments", str(path), "--dataset", str(dataset_file),
                  "--seed-classes", "0", "--output", str(report)])
        assert not report.exists()


class TestEvalCommand:
    def test_rescore_assignments(self, dataset_file, tmp_path):
        out = tmp_path / "out"
        main([
            "run", "--dataset", str(dataset_file), "--output", str(out),
            "--families", "nb", "--algorithms", "semisup",
            "--num-partitions", "1", "--seeds-fraction", "0.1",
        ])
        runs = read_runs(out)
        assignments = next(out.glob("assign_*.csv"))
        report_path = tmp_path / "report.json"
        rc = main([
            "eval", "--assignments", str(assignments),
            "--dataset", str(dataset_file), "--seed-classes", "0,1,2",
            "--output", str(report_path),
        ])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert 0.0 <= report["macro_f1_seed"] <= 1.0
        assert report["num_clusters"] >= 1
        assert len(report["per_class_prf"]) == 3
        # the saved run evaluated on unlabeled only; eval here scores all
        # instances, so just sanity check the shared scale
        assert float(runs[0]["seed_f1"]) <= 1.0

    @pytest.mark.parametrize("include_seeds", [False, True])
    def test_partitions_rescore_every_row_to_its_seed_f1(
        self, dataset_file, tmp_path, include_seeds
    ):
        out = tmp_path / "out"
        main([
            "run", "--dataset", str(dataset_file), "--output", str(out),
            "--families", "nb,kmeans", "--algorithms", "exploratory,semisup,crp-modified",
            "--criteria", "js,random", "--p-new", "0.01", "--crp-epochs", "2",
            "--num-partitions", "3", "--num-seed-classes", "2", "--seeds-fraction", "0.2",
            *(["--include-seeds-in-eval"] if include_seeds else []),
        ])
        saved = json.loads((out / "partitions.json").read_text())
        assert saved["include_seeds_in_eval"] is include_seeds
        assert [len(p["seeded_class_ids"]) for p in saved["partitions"]] == [2, 2, 2]
        rows = read_runs(out)
        assert len(rows) == 2 * 4 * 3 and not any(r["error"] for r in rows)
        report = tmp_path / "report.json"
        for row in rows:
            name = "_".join(filter(None, [
                "assign", row["algorithm"], row["family"], row["criterion"],
                row["p_new"] and f"pnew{float(row['p_new']):g}", f"part{row['partition']}"]))
            main(["eval", "--assignments", str(out / f"{name}.csv"),
                  "--dataset", str(dataset_file), "--partitions", str(out / "partitions.json"),
                  "--partition", row["partition"], "--output", str(report)])
            assert f"{json.loads(report.read_text())['macro_f1_seed']:.6f}" == row["seed_f1"]

    @pytest.mark.parametrize("flags, text, message", [
        (["--partitions", "{saved}"], None, "--partitions and --partition go together"),
        (["--partitions", "{saved}", "--partition", "2"], None,
         "--partition: {saved} holds partitions 0 to 1, not 2"),
        (["--partitions", "{saved}", "--partition", "-1"], None,
         "--partition: {saved} holds partitions 0 to 1, not -1"),
        (["--partitions", "{saved}", "--partition", "0"], '{"partitions": [{}]}',
         "{saved}: not a partitions.json that run writes"),
        (["--partitions", "{saved}", "--partition", "0"], "[",
         "{saved}: not a partitions.json that run writes"),
        (["--partitions", "{saved}", "--partition", "0"],
         '{"include_seeds_in_eval": false, "partitions": '
         '[{"seeded_class_ids": [0, 7], "labeled_instance_ids": []}]}',
         "--partitions: no row of {dataset} has class 7; its class ids are 0, 1, 2"),
        *((["--partitions", "{saved}", "--partition", "0"],
           '{"include_seeds_in_eval": false, "partitions": '
           f'[{{"seeded_class_ids": {seeded}, "labeled_instance_ids": {labeled}}}]}}',
           "{saved}: not a partitions.json that run writes")
          for seeded, labeled in [("[1.7]", "[]"), ("[true, 1]", "[]"), ('["1"]', "[]"),
                                  ("[1, 1]", "[]"), ("1", "[]"), ("[0]", '"01"'),
                                  ("[0]", "[0]")]),
    ])
    def test_eval_bad_partitions(self, dataset_file, tmp_path, flags, text, message):
        saved = tmp_path / "partitions.json"
        saved.write_text(text or json.dumps({"include_seeds_in_eval": False, "partitions": [
            {"seeded_class_ids": [0], "labeled_instance_ids": []}] * 2}))
        report = tmp_path / "report.json"
        message = message.format(saved=saved, dataset=dataset_file)
        with pytest.raises(SystemExit, match=f"^eval: {re.escape(message)}$"):
            main(["eval", "--assignments", str(dataset_file), "--dataset", str(dataset_file),
                  *(f.format(saved=saved) for f in flags), "--output", str(report)])
        assert not report.exists()

    @pytest.mark.parametrize("seeds, message", [
        ("0,x", "--seed-classes: 'x' is not an integer class id"),
        ("0,", "--seed-classes: '' is not an integer class id"),
        ("1.5", "--seed-classes: '1.5' is not an integer class id"),
        ("0,7", "--seed-classes: no row of {dataset} has class 7; its class ids are 0, 1, 2"),
        ("-1", "--seed-classes: no row of {dataset} has class -1; its class ids are 0, 1, 2"),
    ])
    def test_eval_bad_seed_classes(self, dataset_file, tmp_path, seeds, message):
        report = tmp_path / "report.json"
        message = message.format(dataset=dataset_file)
        with pytest.raises(SystemExit, match=f"^eval: {re.escape(message)}$"):
            main(["eval", "--assignments", str(dataset_file), "--dataset", str(dataset_file),
                  "--seed-classes", seeds, "--output", str(report)])
        assert not report.exists()


class TestSweepPnewCommand:
    def test_smoke(self, dataset_file, tmp_path):
        out = tmp_path / "out"
        rc = main([
            "sweep-pnew", "--dataset", str(dataset_file), "--output", str(out),
            "--p-new", "0.0001,0.01", "--family", "nb",
            "--num-partitions", "2", "--seeds-fraction", "0.1",
            "--crp-epochs", "5",
        ])
        assert rc == 0
        rows = read_runs(out)
        # semisup (2) + 2 crp picks x 2 p_new x 2 partitions (8)
        assert len(rows) == 10
        assert {r["algorithm"] for r in rows} == {
            "semisup", "crp-standard", "crp-modified"
        }

    def test_is_run_with_its_preset(self, dataset_file, tmp_path):
        flags = ["--dataset", str(dataset_file), "--p-new", "0.0001,0.01",
                 "--num-partitions", "2", "--seeds-fraction", "0.1", "--crp-epochs", "3"]
        sweep, run = tmp_path / "sweep", tmp_path / "run"
        assert main(["sweep-pnew", *flags, "--output", str(sweep), "--family", "nb"]) == 0
        assert main(["run", *flags, "--output", str(run), "--families", "nb",
                     "--algorithms", "semisup,crp-standard,crp-modified", "--criteria", ""]) == 0
        names = sorted(f.name for f in sweep.glob("*.*") if f.name != "runs.csv")
        # 10 assignment files, label_map.csv, partitions.json and summary.json
        assert len(names) == 13
        _, mismatch, errors = filecmp.cmpfiles(sweep, run, names, shallow=False)
        assert (mismatch, errors) == ([], [])
        rows = [read_runs(sweep), read_runs(run)]
        for r in rows[0] + rows[1]:
            r.pop("runtime_s")
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("flags, message", [
        (["--p-new", "0.1,often"], "p_new: could not convert string to float: 'often'$"),
        (["--p-new", "0.1,1.5"], "p_new: 1.5 is not in \\(0, 1\\)$"),
        (["--p-new", "0.1", "--num-partitions", "0"], "num_partitions: 0 is not >= 1$"),
        (["--p-new="], "p_new: none given, and algorithm crp-standard needs at least one$"),
    ])
    def test_bad_value_is_one_line(self, dataset_file, tmp_path, flags, message):
        out = tmp_path / "out"
        with pytest.raises(SystemExit, match=f"^sweep-pnew: {message}"):
            main(["sweep-pnew", "--dataset", str(dataset_file), "--output", str(out), *flags])
        assert not out.exists()


class TestConfigModule:
    def test_parse_and_comments(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "# full line comment\n"
            "families = nb, vmf\n"
            "p_new = 1e-4, 0.01  # trailing comment\n"
            "num_partitions = 5\n"
            "include_seeds_in_eval = true\n"
            "\n"
        )
        values = parse_config(path)
        assert values == {
            "families": ["nb", "vmf"],
            "p_new": [1e-4, 0.01],
            "num_partitions": 5,
            "include_seeds_in_eval": True,
        }

    def test_bad_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("families nb\n")
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(path)

    @pytest.mark.parametrize("text, message", [
        ("families = nb\nnum_partition = 3\n", "line 2: unknown key 'num_partition'"),
        ("max_iterations = abc\n", "line 1: max_iterations: invalid literal"),
        ("\np_new = 0.1, often\n", "line 2: p_new: could not convert"),
        ("include_seeds_in_eval = maybe\n", "line 1: include_seeds_in_eval: expected a boolean"),
    ])
    def test_fault_names_its_line(self, tmp_path, text, message):
        path = tmp_path / "c.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"^{message}"):
            parse_config(path)

    def test_bad_bool(self):
        with pytest.raises(ConfigError):
            coerce("include_seeds_in_eval", "maybe")

import csv
import json

import pytest

from exploressl.cli import main
from exploressl.config import ConfigError, coerce, merge, parse_config
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
        assert d.class_counts() == {0: 20, 1: 20, 2: 20}


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
        assert len(read_runs(out)) == 2

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

    def test_bad_flag_value_is_one_line(self, dataset_file, tmp_path):
        with pytest.raises(SystemExit, match="^run: p_new: "):
            main(["run", "--dataset", str(dataset_file), "--output", str(tmp_path / "out"),
                  "--p-new", "0.1,often"])


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

    def test_merge_precedence(self):
        merged = merge(
            {"a": 1, "b": 2, "c": 3},
            {"b": 20, "c": 30},
            {"c": 300, "b": None},
        )
        assert merged == {"a": 1, "b": 20, "c": 300}

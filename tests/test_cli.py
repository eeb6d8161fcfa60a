"""End-to-end tests of the command-line interface.

Most cases call ``main(argv)`` in process and inspect exit codes, files,
and stderr.  One case shells out to verify that the worker-thread
environment variable cannot change any output byte.
"""
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from robustqda.cli import main
from robustqda.core import LocationScatter, mvn_sample, substream
from robustqda.data_io import write_dataset
from robustqda.model_io import load_model
from robustqda.qda import classify_rows
from robustqda.sim import (
    ClassSpec,
    Contamination,
    Scenario,
    format_scenario,
    preset_scenario,
    two_class_demo,
)


def make_training_csv(path, n_per_class=200, seed=0):
    """Two well-separated 2-D classes with a few planted far points."""
    ls1 = LocationScatter.from_sigma(np.zeros(2), np.eye(2))
    ls2 = LocationScatter.from_sigma(np.array([6.0, 6.0]), np.diag([1.0, 2.0]))
    X = np.vstack(
        [
            mvn_sample(substream(seed, 1), ls1, n_per_class),
            mvn_sample(substream(seed, 2), ls2, n_per_class),
        ]
    )
    X[:8] = [40.0, -40.0]
    y = np.repeat([1, 2], n_per_class)
    write_dataset(path, X, y=y)
    return X, y


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "train.csv"
    model = root / "model.json"
    X, y = make_training_csv(data)
    rc = main(
        [
            "train",
            "--data",
            str(data),
            "--label-col",
            "label",
            "--blocks",
            "1",
            "--seed",
            "0",
            "--out",
            str(model),
        ]
    )
    assert rc == 0
    return {"root": root, "data": data, "model": model, "X": X, "y": y}


class TestMcdCommand:
    def test_stdout_report(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        rng = np.random.default_rng(1)
        write_dataset(data, rng.standard_normal((150, 2)))
        rc = main(["mcd", "--data", str(data), "--blocks", "2", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr()
        lines = out.out.splitlines()
        assert lines[0] == "blockwise mcd estimate"
        keys = dict(line.split(" = ", 1) for line in lines[1:] if " = " in line)
        assert keys["rows"] == "150"
        assert keys["features"] == "x1,x2"
        assert keys["blocks_requested"] == "2"
        assert keys["blocks_used"] == "2"
        assert keys["seed"] == "3"
        assert len(keys["location"].split()) == 2
        assert float(keys["det"]) > 0
        # timing goes to stderr, never into the report
        assert "took" in out.err
        assert "took" not in out.out

    def test_file_output_rerun_identical(self, tmp_path):
        data = tmp_path / "d.csv"
        rng = np.random.default_rng(2)
        write_dataset(data, rng.standard_normal((150, 3)))
        out1 = tmp_path / "r1.txt"
        out2 = tmp_path / "r2.txt"
        argv = ["mcd", "--data", str(data), "--blocks", "3", "--seed", "1"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_nan_cell_cites_position(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("a,b\n1.0,2.0\n3.0,nan\n")
        rc = main(["mcd", "--data", str(data)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: DataError:" in err
        assert "row 2" in err and "'b'" in err

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        rc = main(["mcd", "--data", str(tmp_path / "nope.csv")])
        assert rc == 4
        assert "error:" in capsys.readouterr().err

    def test_bad_blocks_flag(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["mcd", "--data", "x.csv", "--blocks", "zero"])
        assert info.value.code == 2


class TestTrainCommand:
    def test_model_file_and_stderr_summary(self, trained, capsys):
        doc = load_model(trained["model"])
        model, names = doc
        assert names is None
        assert model.n_classes == 2
        assert model.mode == "robust"

    def test_label_gap_rejected(self, tmp_path, capsys):
        data = tmp_path / "gap.csv"
        rng = np.random.default_rng(3)
        X = rng.standard_normal((80, 2))
        y = np.repeat([1, 3], 40)
        write_dataset(data, X, y=y)
        rc = main(
            ["train", "--data", str(data), "--label-col", "label",
             "--out", str(tmp_path / "m.json")]
        )
        assert rc == 2
        assert "labels must be 1..G contiguous" in capsys.readouterr().err

    def test_degenerate_class_is_numeric_error(self, tmp_path, capsys):
        data = tmp_path / "flat.csv"
        rng = np.random.default_rng(4)
        X = rng.standard_normal((100, 2))
        X[:50] = 1.0  # class 1 carries no variation at all
        y = np.repeat([1, 2], 50)
        write_dataset(data, X, y=y)
        rc = main(
            ["train", "--data", str(data), "--label-col", "label", "--blocks", "1",
             "--out", str(tmp_path / "m.json")]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert "error: ZeroScale: class 1:" in err

    def test_block_count_barely_moves_the_estimate(self, tmp_path):
        data = tmp_path / "big.csv"
        make_training_csv(data, n_per_class=400, seed=7)
        m1 = tmp_path / "m1.json"
        m4 = tmp_path / "m4.json"
        base = ["train", "--data", str(data), "--label-col", "label", "--seed", "0"]
        assert main(base + ["--blocks", "1", "--out", str(m1)]) == 0
        assert main(base + ["--blocks", "4", "--out", str(m4)]) == 0
        a, _ = load_model(m1)
        b, _ = load_model(m4)
        for ca, cb in zip(a.classes, b.classes):
            assert np.all(np.abs(ca.loc_scat.mu - cb.loc_scat.mu) < 0.05)

    def test_auto_blocks_model_ignores_core_count(self, tmp_path, monkeypatch):
        data = tmp_path / "large.csv"
        make_training_csv(data, n_per_class=10_000, seed=8)
        monkeypatch.delenv("ROBUST_QDA_THREADS", raising=False)
        outputs = []
        for cores in (1, 64):
            monkeypatch.setattr(os, "cpu_count", lambda cores=cores: cores)
            out = tmp_path / f"model_{cores}.json"
            argv = ["train", "--data", str(data), "--label-col", "label", "--blocks", "auto"]
            assert main(argv + ["--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        model, _ = load_model(tmp_path / "model_1.json")
        assert [cm.blocks for cm in model.classes] == [2, 2]

    def test_text_labels_round_trip(self, tmp_path, capsys):
        data = tmp_path / "named.csv"
        rng = np.random.default_rng(5)
        X = np.vstack([rng.standard_normal((60, 2)), rng.standard_normal((60, 2)) + 8])
        names = ["walk"] * 60 + ["run"] * 60
        lines = ["x1,x2,label"]
        lines += [f"{float(X[i, 0])!r},{float(X[i, 1])!r},{names[i]}" for i in range(120)]
        data.write_text("\n".join(lines) + "\n")
        model_path = tmp_path / "m.json"
        rc = main(
            ["train", "--data", str(data), "--label-col", "label", "--mode", "classical",
             "--out", str(model_path)]
        )
        assert rc == 0
        _, label_names = load_model(model_path)
        assert label_names == ("run", "walk")
        assert "class run:" in capsys.readouterr().err

    def test_carriage_return_in_a_label_reaches_the_model(self, tmp_path):
        data = tmp_path / "cr.csv"
        rng = np.random.default_rng(5)
        X = np.vstack([rng.standard_normal((60, 2)), rng.standard_normal((60, 2)) + 8])
        write_dataset(data, X, y=np.array(["a\rb"] * 60 + ["c"] * 60, dtype=object))
        model_path = tmp_path / "m.json"
        rc = main(
            ["train", "--data", str(data), "--label-col", "label", "--mode", "classical",
             "--out", str(model_path)]
        )
        assert rc == 0
        _, label_names = load_model(model_path)
        assert label_names == ("a\rb", "c")

    def test_quoted_names_predict_as_csv_cells(self, tmp_path):
        rng = np.random.default_rng(6)
        X = np.vstack([rng.standard_normal((60, 2)), rng.standard_normal((60, 2)) + 8])
        names = ["a,b"] * 60 + ['say "hi"'] * 60
        with open(tmp_path / "named.csv", "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([["x1", "x2", "label"], *zip(*X.T, names)])
        write_dataset(tmp_path / "features.csv", np.vstack([X, [[40.0, -40.0]]]))
        model = str(tmp_path / "m.json")
        assert main(["train", "--data", str(tmp_path / "named.csv"), "--label-col", "label",
                     "--mode", "classical", "--out", model]) == 0
        assert main(["predict", "--model", model, "--data", str(tmp_path / "features.csv"),
                     "--out", str(tmp_path / "pred.csv")]) == 0
        with open(tmp_path / "pred.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["row", "predicted", "min_rd", "score_1", "score_2"]
        assert {len(row) for row in rows} == {5}
        assert [row[1] for row in rows[1:]] == names + ["0"]

    def test_class_named_zero_exits_2(self, tmp_path, capsys):
        data = tmp_path / "zero.csv"
        write_dataset(data, np.random.default_rng(7).standard_normal((40, 2)),
                      y=np.array(["0", "a"] * 20, dtype=object))
        rc = main(["train", "--data", str(data), "--label-col", "label", "--mode", "classical",
                   "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert "no class may be named '0'" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()



@pytest.mark.parametrize("command", ["mcd", "train"])
class TestHFracFlag:
    def test_help_states_half_open_domain(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        assert "subset fraction in [0.5, 1) (default 0.5)" in " ".join(capsys.readouterr().out.split())

    def test_one_is_rejected_with_domain_message(self, command, tmp_path, capsys):
        data = tmp_path / "d.csv"
        make_training_csv(data, n_per_class=60)
        argv = [command, "--data", str(data), "--h-frac", "1", "--blocks", "1"]
        if command == "train":
            argv += ["--label-col", "label", "--out", str(tmp_path / "m.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: DomainError: ")
        assert "coverage fraction must lie in [0.5, 1), got 1.0" in err
        assert not (tmp_path / "m.json").exists()

class TestNegativeSeed:
    """A negative seed is a validation error (exit 2) that writes nothing."""

    def assert_rejected(self, argv, out, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: DomainError: seed must be a non-negative integer, got -1")
        assert not out.exists()

    def test_mcd(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        make_training_csv(data, n_per_class=60)
        out = tmp_path / "report.txt"
        self.assert_rejected(["mcd", "--data", str(data), "--seed", "-1", "--out", str(out)],
                             out, capsys)

    @pytest.mark.parametrize("mode", ["robust", "classical"])
    def test_train(self, mode, tmp_path, capsys):
        data = tmp_path / "d.csv"
        make_training_csv(data, n_per_class=60)
        out = tmp_path / "m.json"
        argv = ["train", "--data", str(data), "--label-col", "label", "--mode", mode,
                "--seed", "-1", "--out", str(out)]
        self.assert_rejected(argv, out, capsys)

    @pytest.mark.parametrize("source", ["preset", "file", "file-override"])
    def test_simulate(self, source, tmp_path, capsys):
        scenario = "clean"
        if source != "preset":
            scenario = tmp_path / "scenario.txt"
            seed = "1" if source == "file-override" else "-1"
            scenario.write_text(format_scenario(preset_scenario("clean", scale=0.002)).replace(
                "seed = 0", f"seed = {seed}"))
        argv = ["simulate", "--scenario", str(scenario), "--reps", "1", "--out", str(tmp_path / "o")]
        if source != "file":
            argv += ["--seed", "-1"]
        self.assert_rejected(argv, tmp_path / "o", capsys)


class TestPredictCommand:
    def test_round_trip_matches_in_process_scores(self, trained, tmp_path):
        feats = tmp_path / "feats.csv"
        write_dataset(feats, trained["X"])
        out = tmp_path / "pred.csv"
        rc = main(
            ["predict", "--model", str(trained["model"]), "--data", str(feats),
             "--out", str(out)]
        )
        assert rc == 0
        model, _ = load_model(trained["model"])
        labels, scores, _, min_rd = classify_rows(model, trained["X"])
        rows = out.read_text().splitlines()
        assert rows[0] == "row,predicted,min_rd,score_1,score_2"
        assert len(rows) == trained["X"].shape[0] + 1
        got = np.array([row.split(",")[1] for row in rows[1:]])
        assert np.array_equal(got.astype(int), labels)

    def test_far_point_prints_zero(self, trained, tmp_path):
        feats = tmp_path / "far.csv"
        write_dataset(feats, np.array([[900.0, -900.0], [0.0, 0.0]]))
        out = tmp_path / "pred.csv"
        assert main(
            ["predict", "--model", str(trained["model"]), "--data", str(feats),
             "--out", str(out)]
        ) == 0
        rows = out.read_text().splitlines()
        assert rows[1].split(",")[1] == "0"
        assert rows[2].split(",")[1] == "1"

    def test_rerun_identical(self, trained, tmp_path):
        feats = tmp_path / "feats.csv"
        write_dataset(feats, trained["X"][:50])
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        argv = ["predict", "--model", str(trained["model"]), "--data", str(feats)]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_feature_count_mismatch(self, trained, tmp_path, capsys):
        feats = tmp_path / "wide.csv"
        write_dataset(feats, np.zeros((3, 5)))
        rc = main(
            ["predict", "--model", str(trained["model"]), "--data", str(feats),
             "--out", str(tmp_path / "p.csv")]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestUnreadableInput:
    """Bytes that are not UTF-8 and cells the csv module refuses are input
    errors (exit 2), not tracebacks."""

    def test_non_utf8_data(self, tmp_path, capsys):
        data = tmp_path / "latin.csv"
        data.write_bytes(b"a,b\n1.0,2.0\n\xff,3.0\n")
        assert main(["mcd", "--data", str(data)]) == 2
        assert "error: DataError: CSV is not UTF-8 text" in capsys.readouterr().err

    def test_oversized_quoted_cell(self, tmp_path, capsys):
        data = tmp_path / "huge.csv"
        data.write_text('a,b\n"' + "1" * 200_000 + '",2.0\n')
        assert main(["mcd", "--data", str(data)]) == 2
        err = capsys.readouterr().err
        assert err == "error: DataError: row 1: field larger than field limit (131072)\n"

    def test_non_utf8_model(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_bytes(b'{"format_version": 1, "mode": "\xff"}')
        feats = tmp_path / "x.csv"
        write_dataset(feats, np.zeros((3, 2)))
        rc = main(["predict", "--model", str(model), "--data", str(feats), "--out", str(tmp_path / "p.csv")])
        assert rc == 2
        assert "error: DataError: model file is not UTF-8 text" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    def test_non_utf8_scenario(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.txt"
        scenario.write_bytes(b"seed = 1\n\xff\n")
        out = tmp_path / "study"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 2
        assert "error: DataError: scenario file is not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    root = tmp_path_factory.mktemp("lb")
    X, y, _ = two_class_demo()
    data = root / "demo.csv"
    write_dataset(data, X, y=y)
    model = root / "model.json"
    rc = main(
        ["train", "--data", str(data), "--label-col", "label", "--blocks", "1",
         "--seed", "0", "--out", str(model)]
    )
    assert rc == 0
    return {"root": root, "data": data, "model": model}


class TestLbplotCommand:
    def test_writes_csv_and_svg(self, demo, tmp_path):
        csv_path = tmp_path / "lb.csv"
        svg_path = tmp_path / "lb.svg"
        rc = main(
            ["lbplot", "--model", str(demo["model"]), "--data", str(demo["data"]),
             "--label-col", "label", "--class", "2",
             "--csv", str(csv_path), "--svg", str(svg_path)]
        )
        assert rc == 0
        text = csv_path.read_text()
        assert text.splitlines()[0] == "row,rd_own,lb,given,predicted,overall_outlier"
        svg = svg_path.read_text()
        assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
        assert ">class 2</text>" in svg

    def test_rerun_identical(self, demo, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        argv = ["lbplot", "--model", str(demo["model"]), "--data", str(demo["data"]),
                "--label-col", "label", "--class", "1"]
        assert main(argv + ["--csv", str(a)]) == 0
        assert main(argv + ["--csv", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_class(self, demo, tmp_path, capsys):
        rc = main(
            ["lbplot", "--model", str(demo["model"]), "--data", str(demo["data"]),
             "--label-col", "label", "--class", "9",
             "--csv", str(tmp_path / "x.csv")]
        )
        assert rc == 2
        assert "error: DataError:" in capsys.readouterr().err

    def test_label_the_model_was_not_trained_on(self, demo, tmp_path, capsys):
        """Rows labeled 3 and 0 after the class-2 rows are refused, as a
        named model refuses an unknown name, not left out of the plot."""
        X, y, _ = two_class_demo()
        n = int(np.count_nonzero(y == 2))
        data = tmp_path / "extra.csv"
        write_dataset(data, np.vstack([X[y == 2], X[:2]]), y=np.concatenate([y[y == 2], [3, 0]]))
        out = tmp_path / "lb.csv"
        rc = main(["lbplot", "--model", str(demo["model"]), "--data", str(data),
                   "--label-col", "label", "--class", "2", "--csv", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"row {n + 1}: label '3' is not one of the trained classes (1, 2)" in err
        assert not out.exists()


class TestSimulateCommand:
    def scenario_file(self, tmp_path):
        noise = Contamination(kind="point", center=(30.0, 30.0))
        sc = Scenario(
            classes=(
                ClassSpec(n=150, mu=(0.0, 0.0), sigma=(1.0, 1.0), contamination=noise),
                ClassSpec(n=160, mu=(6.0, 6.0), sigma=(1.0, 2.0), contamination=noise),
            ),
            eps_label=0.1,
            seed=21,
            name="tiny",
        )
        path = tmp_path / "scenario.txt"
        path.write_text(format_scenario(sc))
        return path

    def test_custom_scenario_runs_and_reruns_identically(self, tmp_path):
        path = self.scenario_file(tmp_path)
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        argv = ["simulate", "--scenario", str(path), "--reps", "1",
                "--methods", "classical"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == [
            "confusion_classical.csv",
            "metrics_classical.csv",
            "report.txt",
            "scenario.txt",
        ]
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_scenario_file_with_a_byte_order_mark_gives_the_same_study(self, tmp_path):
        path = self.scenario_file(tmp_path)
        marked = tmp_path / "marked.txt"
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        argv = ["simulate", "--reps", "1", "--methods", "classical"]
        assert main(argv + ["--scenario", str(path), "--out", str(tmp_path / "r1")]) == 0
        assert main(argv + ["--scenario", str(marked), "--out", str(tmp_path / "r2")]) == 0
        for name in ("report.txt", "metrics_classical.csv"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()

    def test_seed_override_changes_report(self, tmp_path):
        path = self.scenario_file(tmp_path)
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        base = ["simulate", "--scenario", str(path), "--reps", "1",
                "--methods", "classical"]
        assert main(base + ["--out", str(out1)]) == 0
        assert main(base + ["--seed", "99", "--out", str(out2)]) == 0
        assert (out1 / "report.txt").read_bytes() != (out2 / "report.txt").read_bytes()

    def test_unknown_scenario_is_io_error(self, tmp_path, capsys):
        rc = main(
            ["simulate", "--scenario", "no-such-preset", "--out", str(tmp_path / "o")]
        )
        assert rc == 4
        assert "error:" in capsys.readouterr().err

    def test_bad_reps_flag(self, tmp_path, capsys):
        path = self.scenario_file(tmp_path)
        rc = main(
            ["simulate", "--scenario", str(path), "--reps", "0",
             "--out", str(tmp_path / "o")]
        )
        assert rc == 2
        assert "error: ConfigError:" in capsys.readouterr().err

    def test_scale_with_scenario_file_exits_2(self, tmp_path, capsys):
        path = self.scenario_file(tmp_path)
        rc = main(["simulate", "--scenario", str(path), "--scale", "5", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ConfigError: --scale ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("scale", ["0", "-inf", "nan", "inf"])
    def test_scale_must_be_positive_and_finite(self, scale, tmp_path, capsys):
        rc = main(["simulate", "--scenario", "clean", f"--scale={scale}", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: ConfigError: scale must be positive and finite, got {float(scale)!r}\n")
        assert not (tmp_path / "o").exists()


class TestThreadEnvIndependence:
    def test_mcd_bytes_match_across_worker_counts(self, tmp_path):
        data = tmp_path / "d.csv"
        rng = np.random.default_rng(11)
        write_dataset(data, rng.standard_normal((400, 3)))
        outputs = []
        for workers in ("1", "4"):
            out = tmp_path / f"report_{workers}.txt"
            env = dict(os.environ, ROBUST_QDA_THREADS=workers)
            proc = subprocess.run(
                [sys.executable, "-m", "robustqda.cli", "mcd",
                 "--data", str(data), "--blocks", "4", "--seed", "2",
                 "--out", str(out)],
                env=env,
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_zero_threads_exits_2_on_small_mcd_run(self, tmp_path):
        data = tmp_path / "d.csv"
        write_dataset(data, np.random.default_rng(12).standard_normal((200, 3)))
        proc = subprocess.run(
            [sys.executable, "-m", "robustqda.cli", "mcd", "--data", str(data),
             "--blocks", "2", "--out", str(tmp_path / "r.txt")],
            env=dict(os.environ, ROBUST_QDA_THREADS="0"),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "ROBUST_QDA_THREADS" in proc.stderr
        assert not (tmp_path / "r.txt").exists()


class TestStartUp:
    """Each command runs only the package modules it uses: the five that
    load lazily run at first use, and ``numpy.ma``, ``numpy.random`` and
    ``concurrent.futures`` load only where something needs them.  No
    command loads SciPy or starts a thread, and the CLI pins BLAS to one
    thread before numpy loads it unless the user has set its thread
    count."""

    DEFERRED = {"block_mcd", "lbplot", "mcd", "robust_scale", "sim"}
    UNUSED = {"numpy.ma", "numpy.random", "concurrent.futures"}
    BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    # Records the package files whose module body runs (the import system
    # runs each through the builtin exec, which raises the "exec" audit
    # event), the processes forked (the "os.fork" audit event), the
    # threads started, and the modules loaded after numpy's own (numpy 1.x
    # loads numpy.ma and numpy.random itself).
    SCRIPT = (
        "import json, sys, threading\n"
        "import numpy\n"
        "before = set(sys.modules)\n"
        "files, forks, threads = [], [], []\n"
        "def audit(event, args):\n"
        "    if event == 'exec':\n"
        "        files.append(args[0].co_filename)\n"
        "    elif event == 'os.fork':\n"
        "        forks.append(event)\n"
        "sys.addaudithook(audit)\n"
        "start = threading.Thread.start\n"
        "threading.Thread.start = lambda self: threads.append(self.name) or start(self)\n"
        "from robustqda.cli import main\n"
        "code = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "print(json.dumps({'code': code, 'files': files, 'forks': len(forks), 'threads': threads,\n"
        "                  'modules': sorted(set(sys.modules) - before)}))\n"
    )

    def run_script(self, *argv) -> dict:
        """The record of a run, which must have loaded no SciPy module and
        started no thread."""
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, *argv], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.splitlines()[-1])
        assert out["code"] == 0, proc.stderr
        scipy = [name for name in out["modules"] if name.split(".")[0] == "scipy"]
        assert scipy == [], scipy
        assert out["threads"] == [], out["threads"]
        return out

    def loaded(self, out: dict):
        """The deferred modules that ran, and which of ``UNUSED`` the run loaded."""
        import robustqda

        package = Path(robustqda.__file__).parent
        ran = {Path(f).stem for f in out["files"] if Path(f).parent == package}
        return ran & self.DEFERRED, self.UNUSED & set(out["modules"])

    def start(self, *argv):
        return self.loaded(self.run_script(*argv))

    def test_blocks_on_forked_workers_start_no_thread(self, tmp_path, monkeypatch):
        """``mcd --blocks auto`` on 20,800 rows fits four 5200-row blocks,
        whose eight candidates fill two stacks, on two forked workers."""
        from robustqda import mcd

        assert len(mcd._plan_stacks([5200] * 4)) == 2
        X = np.random.default_rng(0).standard_normal((20_800, 3))
        X[::50] += 12.0
        write_dataset(tmp_path / "class.csv", X)
        report = tmp_path / "mcd.txt"
        argv = ("mcd", "--data", str(tmp_path / "class.csv"), "--blocks", "auto", "--out", str(report))
        monkeypatch.setenv("ROBUST_QDA_THREADS", "2")
        out = self.run_script(*argv)
        # The block shuffle draws from numpy.random.
        assert self.loaded(out) == ({"block_mcd", "mcd", "robust_scale"}, {"numpy.random"})
        assert out["forks"] == 2
        assert "block_sizes = 5200 5200 5200 5200\n" in report.read_text()

    # Records each BLAS variable as numpy's import finds it, and after.
    PROBE = (
        "import json, os, sys\n"
        "names, seen = sys.argv[1:], []\n"
        "class Probe:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy' and not seen:\n"
        "            seen.append({v: os.environ.get(v) for v in names})\n"
        "sys.meta_path.insert(0, Probe())\n"
        "import robustqda.cli\n"
        "print(json.dumps(seen + [{v: os.environ.get(v) for v in names}]))\n"
    )

    @pytest.mark.parametrize("user", [{}, {"OPENBLAS_NUM_THREADS": "3"}])
    def test_blas_pinned_before_numpy_loads_unless_set(self, user):
        env = {k: v for k, v in os.environ.items() if k not in self.BLAS_VARS}
        proc = subprocess.run([sys.executable, "-c", self.PROBE, *self.BLAS_VARS],
                              env={**env, **user}, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        at_numpy, after = json.loads(proc.stdout)
        want = {v: user.get(v, "1") for v in self.BLAS_VARS}
        assert at_numpy == after == want

    def test_each_command_runs_only_its_modules(self, tmp_path):
        rng = np.random.default_rng(3)
        X = np.vstack([rng.standard_normal((150, 2)), rng.standard_normal((150, 2)) + 5.0])
        write_dataset(tmp_path / "train.csv", X, y=np.repeat([1, 2], 150))
        write_dataset(tmp_path / "features.csv", X)
        model = str(tmp_path / "model.json")

        assert self.start() == (set(), set())
        assert self.start("train", "--data", str(tmp_path / "train.csv"), "--label-col", "label",
                          "--out", model) == ({"block_mcd", "mcd", "robust_scale"}, set())
        assert self.start("predict", "--model", model, "--data", str(tmp_path / "features.csv"),
                          "--out", str(tmp_path / "pred.csv")) == (set(), set())
        assert self.start("lbplot", "--model", model, "--data", str(tmp_path / "train.csv"),
                          "--label-col", "label", "--class", "1", "--csv", str(tmp_path / "lb.csv"),
                          "--svg", str(tmp_path / "lb.svg")) == ({"lbplot"}, set())
        assert self.start("simulate", "--scenario", "both", "--scale", "0.002", "--reps", "1",
                          "--out", str(tmp_path / "study")) == (self.DEFERRED - {"lbplot"}, {"numpy.random"})
        for name in ("pred.csv", "lb.csv", "lb.svg", "study/report.txt"):
            assert (tmp_path / name).stat().st_size > 0, name


class TestRunEntryPoint:
    """``cli.run``, the console script's entry point, exits with the code
    ``main`` returns and still runs ``atexit`` handlers and flushes stdout."""

    SCRIPT = (
        "import atexit, sys\n"
        "from robustqda import cli\n"
        "atexit.register(lambda: print('atexit ran', file=sys.stderr))\n"
        "cli.run()\n"
    )

    @pytest.mark.parametrize("case, code", [("ok", 0), ("bad cell", 2), ("missing", 4),
                                            ("no data flag", 2)])
    def test_exit_code_and_output_match_main(self, case, code, tmp_path, capsys):
        data = tmp_path / "d.csv"
        write_dataset(data, np.random.default_rng(6).standard_normal((150, 3)))
        (tmp_path / "bad.csv").write_text("a,b\n1.0,2.0\n3.0,oops\n")
        argv = {
            "ok": ["mcd", "--data", str(data), "--blocks", "3"],
            "bad cell": ["mcd", "--data", str(tmp_path / "bad.csv")],
            "missing": ["mcd", "--data", str(tmp_path / "nope.csv")],
            "no data flag": ["mcd"],
        }[case]
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, *argv], capture_output=True,
                              text=True, timeout=120)
        if case == "no data flag":
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == code
        else:
            assert main(argv) == code
        assert proc.returncode == code
        assert proc.stderr.endswith("atexit ran\n")
        assert proc.stdout == capsys.readouterr().out
        if case == "ok":
            # The whole report, last line included, came through the pipe.
            assert proc.stdout.startswith("blockwise mcd estimate\n")
            assert proc.stdout.splitlines()[-1].startswith("pooled_h = ")

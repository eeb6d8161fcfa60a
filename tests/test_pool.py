"""Tests for the process pool, ``_threads.process_map``, and the
``simulate`` replications and ``predict`` row ranges that go through it."""
import os
import pickle
import subprocess
import sys
import threading

import numpy as np
import pytest

from robustqda import sim
from robustqda._threads import process_map, worker_count
from robustqda.cli import MIN_ROWS_PER_WORKER, main
from robustqda.data_io import read_rows, write_dataset
from robustqda.errors import BlocksTooSmall, WorkerDied
from robustqda.sim import ClassSpec, Scenario, format_scenario


def _pid_and_cap(_item):
    return os.getpid(), worker_count()


def _square_or_raise(item):
    if item in (2, 3):
        raise BlocksTooSmall(f"item {item}")
    return item * item


def _exit_on_one(item):
    if item == 1:
        os._exit(1)
    return item


def _die_in_rep(*args):
    os._exit(1)


def _train(root, model, names=None):
    """A 3-class, 3-feature model, with class names if ``names`` is given."""
    rng = np.random.default_rng(0)
    y = np.repeat([1, 2, 3], 100)
    X = rng.standard_normal((300, 3)) + 5.0 * np.eye(3)[y - 1]
    if names is not None:
        y = np.array(names)[y - 1]
    data = root / "train.csv"
    write_dataset(data, X, y=y)
    assert main(["train", "--data", str(data), "--label-col", "label", "--mode", "classical",
                 "--out", str(model)]) == 0


def _features(n, newline="\n"):
    """n rows of 3 features, every line the same width, so that an even
    split gives ranges of equal row counts; some rows are outliers."""
    rng = np.random.default_rng(n)
    X = rng.standard_normal((n, 3)) + 5.0 * np.eye(3)[rng.integers(0, 3, n)]
    X[::7] *= 8.0
    lines = ["x1,x2,x3"] + [",".join(f"{v:+.6e}" for v in row) for row in X.tolist()]
    return newline.join(lines) + newline


def _predict(model, data, out, threads, min_rows=None):
    """``predict`` in a fresh process, with ``cli.MIN_ROWS_PER_WORKER``
    set to ``min_rows`` when given."""
    code = "import sys\nfrom robustqda import cli\n"
    if min_rows is not None:
        code += f"cli.MIN_ROWS_PER_WORKER = {min_rows}\n"
    code += "sys.exit(cli.main(sys.argv[1:]))\n"
    argv = ["predict", "--model", str(model), "--data", str(data), "--out", str(out)]
    env = dict(os.environ, ROBUST_QDA_THREADS=str(threads))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=300)


def _cli(argv, threads):
    env = dict(os.environ, ROBUST_QDA_THREADS=str(threads))
    return subprocess.run(
        [sys.executable, "-m", "robustqda.cli", *argv], env=env, capture_output=True, text=True
    )


class TestProcessMap:
    def test_results_in_item_order(self, monkeypatch):
        monkeypatch.setenv("ROBUST_QDA_THREADS", "2")
        assert process_map(abs, range(-5, 5)) == [abs(v) for v in range(-5, 5)]

    @pytest.mark.parametrize(
        "cap, items, inner",
        [("2", 2, 1), ("4", 2, 2), ("3", 2, 1), ("5", 2, 2), ("4", 8, 1)],
    )
    def test_worker_cap_is_the_cap_split_over_workers(self, monkeypatch, cap, items, inner):
        monkeypatch.setenv("ROBUST_QDA_THREADS", cap)
        seen = process_map(_pid_and_cap, range(items))
        assert {count for _, count in seen} == {inner}
        assert os.getpid() not in {pid for pid, _ in seen}
        assert os.environ["ROBUST_QDA_THREADS"] == cap

    def test_one_worker_runs_in_process(self, monkeypatch):
        monkeypatch.setenv("ROBUST_QDA_THREADS", "1")
        assert process_map(_pid_and_cap, range(3)) == [(os.getpid(), 1)] * 3

    def test_runs_in_process_while_other_threads_run(self, monkeypatch):
        monkeypatch.setenv("ROBUST_QDA_THREADS", "2")
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(10,))
        other.start()
        try:
            seen = process_map(_pid_and_cap, range(3))
        finally:
            release.set()
            other.join(10)
        assert not other.is_alive()
        assert seen == [(os.getpid(), 2)] * 3

    def test_first_error_in_item_order_wins(self, monkeypatch):
        monkeypatch.setenv("ROBUST_QDA_THREADS", "2")
        with pytest.raises(BlocksTooSmall, match="^item 2$"):
            process_map(_square_or_raise, range(6))

    def test_dead_worker_raises_worker_died(self, monkeypatch):
        monkeypatch.setenv("ROBUST_QDA_THREADS", "2")
        with pytest.raises(WorkerDied):
            process_map(_exit_on_one, range(4))

    def test_unpicklable_closure_runs_on_workers(self, monkeypatch):
        monkeypatch.setenv("ROBUST_QDA_THREADS", "2")
        parent = os.getpid()
        lock = threading.Lock()

        def fn(item):
            with lock:
                if item == 3:
                    raise BlocksTooSmall(f"item {item} in a worker: {os.getpid() != parent}")
                return item * 10, os.getpid()

        with pytest.raises(Exception):
            pickle.dumps(fn)
        seen = process_map(fn, range(3))
        assert [value for value, _ in seen] == [0, 10, 20]
        assert parent not in {pid for _, pid in seen}
        with pytest.raises(BlocksTooSmall, match="^item 3 in a worker: True$"):
            process_map(fn, range(6))

    def test_cap_checked_before_any_fork(self, monkeypatch):
        monkeypatch.setenv("ROBUST_QDA_THREADS", "0")
        with pytest.raises(Exception, match="ROBUST_QDA_THREADS"):
            process_map(_pid_and_cap, range(3))

    def test_cli_import_and_serial_study_leave_multiprocessing_unloaded(self):
        code = (
            "import sys, tempfile, robustqda.cli\n"
            "assert 'multiprocessing' not in sys.modules\n"
            "with tempfile.TemporaryDirectory() as out:\n"
            "    assert robustqda.cli.main(['simulate', '--scenario', 'clean', '--scale',"
            " '0.002', '--reps', '2', '--methods', 'classical', '--out', out]) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))\n"
        )
        env = dict(os.environ, ROBUST_QDA_THREADS="1")
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


    def test_predict_below_the_minimum_leaves_multiprocessing_unloaded(self, tmp_path):
        model = tmp_path / "model.json"
        _train(tmp_path, model)
        data = tmp_path / "x.csv"
        data.write_text(_features(2 * MIN_ROWS_PER_WORKER - 1))
        code = (
            "import sys, robustqda.cli\n"
            f"assert robustqda.cli.main(['predict', '--model', {str(model)!r}, '--data',"
            f" {str(data)!r}, '--out', {str(tmp_path / 'p.csv')!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))\n"
        )
        env = dict(os.environ, ROBUST_QDA_THREADS="2")
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
            timeout=300,
        )
        assert out.stdout.strip() == "[]"
        assert "1 row range took" in out.stderr


class TestSimulateWorkers:
    def test_reps_write_the_same_files_at_any_worker_count(self, tmp_path):
        outputs = {}
        for threads in (1, 2, 4):
            out = tmp_path / f"t{threads}"
            proc = _cli(["simulate", "--scenario", "both", "--scale", "0.005",
                         "--reps", "3", "--out", str(out)], threads)
            assert proc.returncode == 0, proc.stderr
            outputs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert len(outputs[1]) == 6
        assert outputs[1] == outputs[2] == outputs[4]

    @pytest.mark.parametrize(
        "class1, exit_code, error",
        [
            # 60 rows cannot make 4 blocks of 20: the robust fit raises.
            (ClassSpec(n=60, mu=(0.0, 0.0), sigma=(1.0, 1.0)), 2, "BlocksTooSmall"),
            # A singular class scatter fails when the replication draws its data.
            (ClassSpec(n=150, mu=(0.0, 0.0), sigma=((1.0, 1.0), (1.0, 1.0))), 3,
             "NotPositiveDefinite"),
        ],
    )
    def test_failing_replication_exits_alike_at_one_and_two_workers(
        self, tmp_path, class1, exit_code, error
    ):
        sc = Scenario(
            classes=(class1, ClassSpec(n=160, mu=(6.0, 6.0), sigma=(1.0, 2.0))),
            eps_label=0.1,
            seed=3,
        )
        path = tmp_path / "scenario.txt"
        path.write_text(format_scenario(sc))
        runs = []
        for threads in (1, 2):
            out = tmp_path / f"t{threads}"
            proc = _cli(["simulate", "--scenario", str(path), "--reps", "3",
                         "--methods", "robust", "--out", str(out)], threads)
            runs.append((proc.returncode, proc.stderr))
            assert not out.exists()
        assert runs[0] == runs[1]
        assert runs[0][0] == exit_code
        lines = runs[0][1].splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {error}: ")

    def test_dead_worker_is_a_one_line_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ROBUST_QDA_THREADS", "2")
        monkeypatch.setattr(sim, "_run_rep", _die_in_rep)
        rc = main(["simulate", "--scenario", "clean", "--scale", "0.002", "--reps", "2",
                   "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 5
        assert err.count("\n") == 1 and err.startswith("error: WorkerDied: ")
        assert not (tmp_path / "o").exists()

    def test_study_seconds_are_per_replication(self, monkeypatch):
        monkeypatch.setenv("ROBUST_QDA_THREADS", "2")
        study = sim.run_study(sim.preset_scenario("clean", scale=0.002), reps=3,
                              methods=("classical",))
        seconds = study.method("classical").seconds
        assert len(seconds) == 3 and all(np.isfinite(seconds)) and min(seconds) > 0


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    root = tmp_path_factory.mktemp("predict")
    _train(root, root / "model.json")
    _train(root, root / "named.json", names=["emu", "cat", "dog"])
    return root


class TestPredictWorkers:
    def test_same_bytes_at_one_two_and_three_workers(self, models, tmp_path):
        data = tmp_path / "x.csv"
        data.write_text(_features(3 * MIN_ROWS_PER_WORKER))
        outputs = {}
        for threads in (1, 2, 3):
            out = tmp_path / f"p{threads}.csv"
            proc = _predict(models / "model.json", data, out, threads)
            assert proc.returncode == 0, proc.stderr
            ranges = "1 row range " if threads == 1 else f"{threads} row ranges "
            assert ranges in proc.stderr
            outputs[threads] = out.read_bytes()
        assert outputs[1] == outputs[2] == outputs[3]
        assert outputs[1].count(b"\n") == 3 * MIN_ROWS_PER_WORKER + 1

    @pytest.mark.parametrize("rows_per_range, n, threads", [(1, 5, 5), (2, 10, 5), (7, 21, 3)])
    def test_small_ranges_give_the_same_bytes(self, models, tmp_path, rows_per_range, n, threads):
        data = tmp_path / "x.csv"
        data.write_text(_features(n))
        rows = read_rows(data)
        ranges = rows.split(n // rows_per_range)
        assert [rows.body.count("\n", r.start, r.stop) for r in ranges] == [rows_per_range] * threads
        one = _predict(models / "model.json", data, tmp_path / "one.csv", 1)
        many = _predict(models / "model.json", data, tmp_path / "many.csv", threads, rows_per_range)
        assert one.returncode == many.returncode == 0, many.stderr
        assert f"{threads} row ranges " in many.stderr
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "many.csv").read_bytes()

    def test_named_labels_and_crlf_input(self, models, tmp_path):
        data = tmp_path / "x.csv"
        data.write_bytes(_features(12, newline="\r\n").encode())
        one = _predict(models / "named.json", data, tmp_path / "one.csv", 1)
        many = _predict(models / "named.json", data, tmp_path / "many.csv", 3, 3)
        assert one.returncode == many.returncode == 0, many.stderr
        assert "3 row ranges " in many.stderr
        text = (tmp_path / "many.csv").read_text()
        assert text == (tmp_path / "one.csv").read_text()
        predicted = {line.split(",")[1] for line in text.splitlines()[1:]}
        assert predicted <= {"0", "emu", "cat", "dog"} and len(predicted) >= 3

    @pytest.mark.parametrize("bad_rows, reported", [((15,), 15), ((15, 3), 3), ((20, 11), 11)])
    def test_bad_cell_reports_its_file_row(self, models, tmp_path, bad_rows, reported):
        lines = _features(20).splitlines(keepends=True)
        for row in bad_rows:
            cells = lines[row].split(",")
            cells[1] = "oops"
            lines[row] = ",".join(cells)
        data = tmp_path / "x.csv"
        data.write_text("".join(lines))
        assert [r.first_row for r in read_rows(data).split(2)] == [1, 11]
        runs = [_predict(models / "model.json", data, tmp_path / "p.csv", t, 10) for t in (1, 2)]
        want = f"error: DataError: row {reported}, column 'x2': 'oops' is not a number\n"
        assert [(r.returncode, r.stderr) for r in runs] == [(2, want)] * 2
        assert not (tmp_path / "p.csv").exists()

    def test_oversized_cell_in_the_second_range_reports_its_file_row(self, models, tmp_path):
        # The csv module rejects a cell over its field limit; the error
        # reaches the command from the worker with its file row.
        lines = _features(10_000).splitlines(keepends=True)
        lines[9000] = "1" * 140_000 + ",2.0,3.0\n"
        data = tmp_path / "x.csv"
        data.write_text("".join(lines))
        first, second = read_rows(data).split(2)
        assert 1 < second.first_row < 9000
        runs = [_predict(models / "model.json", data, tmp_path / "p.csv", t, 10) for t in (1, 2)]
        want = "error: DataError: row 9000: field larger than field limit (131072)\n"
        assert [(r.returncode, r.stderr) for r in runs] == [(2, want)] * 2
        assert not (tmp_path / "p.csv").exists()

    def test_quoted_input_is_one_range(self, models, tmp_path):
        lines = _features(9).splitlines()
        lines[4] = ",".join(f'"{cell}"' for cell in lines[4].split(","))
        quoted = tmp_path / "quoted.csv"
        quoted.write_text("\n".join(lines) + "\n")
        plain = tmp_path / "plain.csv"
        plain.write_text(_features(9))
        runs = [_predict(models / "model.json", plain, tmp_path / "plain_pred.csv", 1),
                _predict(models / "model.json", quoted, tmp_path / "quoted_pred.csv", 3, 1)]
        assert [r.returncode for r in runs] == [0, 0], runs[1].stderr
        assert "1 row range " in runs[1].stderr
        assert (tmp_path / "plain_pred.csv").read_bytes() == (tmp_path / "quoted_pred.csv").read_bytes()

    def test_feature_count_mismatch_exits_2_before_any_worker(self, models, tmp_path):
        data = tmp_path / "wide.csv"
        write_dataset(data, np.zeros((40, 4)))
        proc = _predict(models / "model.json", data, tmp_path / "p.csv", 2, 1)
        assert proc.returncode == 2
        assert proc.stderr == "error: DimensionMismatch: X has 4 columns, model expects 3\n"
        assert not (tmp_path / "p.csv").exists()


    def test_bad_cap_exits_2_on_a_small_file(self, models, tmp_path):
        data = tmp_path / "x.csv"
        data.write_text(_features(3))
        proc = _predict(models / "model.json", data, tmp_path / "p.csv", 0)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ConfigError: ROBUST_QDA_THREADS must be")
        assert not (tmp_path / "p.csv").exists()

"""Tests for the replication process pool: ``_threads.process_map`` and the
``simulate`` runs that go through it."""
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from robustqda import sim
from robustqda._threads import process_map, worker_count
from robustqda.cli import main
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

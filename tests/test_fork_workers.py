"""Tests of the forked workers behind ``_threads.process_map``: what they
load, that none outlives the call, and that none returns into the
caller's stack."""
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from robustqda._threads import process_map
from robustqda.cli import main
from robustqda.data_io import write_dataset
from robustqda.errors import BlocksTooSmall, WorkerDied


def _square_or_raise(item):
    if item == 2:
        raise BlocksTooSmall(f"item {item}")
    return item * item


def _exit_on_one(item):
    if item == 1:
        os._exit(1)
    return item


def _exit_cleanly_on_one(item):
    if item == 1:
        os._exit(0)
    return item


def _sleep(item):
    time.sleep(60)
    return item


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestNoChildLeft:
    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        monkeypatch.setenv("ROBUST_QDA_THREADS", "2")

    def test_after_results(self):
        assert process_map(abs, range(-3, 3)) == [3, 2, 1, 0, 1, 2]
        _assert_no_child_left()

    def test_after_an_items_error(self):
        with pytest.raises(BlocksTooSmall, match="^item 2$"):
            process_map(_square_or_raise, range(5))
        _assert_no_child_left()

    def test_after_a_dead_worker(self):
        with pytest.raises(WorkerDied):
            process_map(_exit_on_one, range(4))
        _assert_no_child_left()

    def test_after_a_worker_that_exits_with_code_zero(self):
        # It sends nothing, which is a dead worker and not an empty pickle.
        with pytest.raises(WorkerDied):
            process_map(_exit_cleanly_on_one, range(4))
        _assert_no_child_left()

    def test_interrupt_while_reading_kills_and_reaps_the_children(self):
        def interrupt(signum, frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, interrupt)
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.5)
            with pytest.raises(KeyboardInterrupt):
                process_map(_sleep, range(2))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.perf_counter() - start < 30
        _assert_no_child_left()


def test_system_exit_in_a_worker_is_worker_died(monkeypatch, tmp_path):
    # A child that returned into this stack would reach the ``finally``
    # below in a process other than the test's own.
    monkeypatch.setenv("ROBUST_QDA_THREADS", "2")
    parent = os.getpid()
    escaped = tmp_path / "escaped"

    def fn(item):
        if item == 1:
            raise SystemExit(0)
        return item

    try:
        with pytest.raises(WorkerDied):
            process_map(fn, range(2))
    finally:
        if os.getpid() != parent:
            escaped.write_text(str(os.getpid()))
            os._exit(0)
    assert not escaped.exists()
    _assert_no_child_left()


class TestWorkersLoadNothing:
    """A worker runs only code its parent had loaded at the fork: each
    command's function is wrapped to compare ``sys.modules`` before and
    after one item, in a fresh process at cap 2."""

    SCRIPT = (
        "import os, sys\n"
        "from robustqda import _threads, cli, sim\n"
        "parent = os.getpid()\n"
        "def probed(fn, items):\n"
        "    def probe(item):\n"
        "        before = set(sys.modules)\n"
        "        value = fn(item)\n"
        "        if os.getpid() == parent:\n"
        "            raise RuntimeError('the item ran in the parent')\n"
        "        new = sorted(set(sys.modules) - before)\n"
        "        if new:\n"
        "            raise RuntimeError(f'a worker loaded {new}')\n"
        "        return value\n"
        "    return _threads.process_map(probe, items)\n"
        "cli.process_map = sim.process_map = probed\n"
        "cli.MIN_ROWS_PER_WORKER = 10\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )

    def run(self, *argv):
        env = dict(os.environ, ROBUST_QDA_THREADS="2")
        return subprocess.run([sys.executable, "-c", self.SCRIPT, *argv], env=env,
                              capture_output=True, text=True, timeout=300)

    def test_simulate(self, tmp_path):
        proc = self.run("simulate", "--scenario", "both", "--scale", "0.005", "--reps", "2",
                        "--out", str(tmp_path / "study"))
        assert proc.returncode == 0, proc.stderr

    def test_predict(self, tmp_path):
        rng = np.random.default_rng(0)
        y = np.repeat([1, 2], 300)
        write_dataset(tmp_path / "train.csv", rng.standard_normal((600, 3)) + 4.0 * y[:, None], y=y)
        write_dataset(tmp_path / "x.csv", rng.standard_normal((40, 3)))
        model = str(tmp_path / "model.json")
        assert main(["train", "--data", str(tmp_path / "train.csv"), "--label-col", "label",
                     "--out", model]) == 0
        proc = self.run("predict", "--model", model, "--data", str(tmp_path / "x.csv"),
                        "--out", str(tmp_path / "p.csv"))
        assert proc.returncode == 0, proc.stderr
        assert "2 row ranges" in proc.stderr

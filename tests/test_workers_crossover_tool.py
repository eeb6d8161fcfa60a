"""``tools/workers_crossover.py``: the crossover rule, a block sweep that
always has work for a second worker, and a launcher run that forks."""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from robustqda import mcd
from robustqda.data_io import write_dataset

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def tool(monkeypatch):
    # The module pins OPENBLAS_NUM_THREADS when it loads; monkeypatch
    # puts the variable back as it found it.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    spec = importlib.util.spec_from_file_location("workers_crossover", ROOT / "tools" / "workers_crossover.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_crossover_is_the_first_size_of_the_last_winning_run(tool):
    rows = [{"rows": n, "speedup_cap2_over_cap1": s}
            for n, s in zip((10, 20, 30, 40, 50), (0.9, 1.1, 0.95, 1.2, 1.3))]
    assert tool.crossover(rows, "rows") == 40
    assert tool.crossover(rows[:3], "rows") is None
    assert tool.crossover(rows[1:2], "rows") == 20


def test_every_block_size_plans_two_stacks(tool):
    for size in tool.BLOCK_ROWS:
        assert len(mcd._plan_stacks([size] * tool.block_count(size))) >= 2, size


def test_launcher_forks_two_block_workers_at_cap_two(tool, tmp_path):
    data = tmp_path / "blocks.csv"
    write_dataset(data, tool.block_sample(4 * 5200, seed=1))
    argv = ["mcd", "--data", str(data), "--blocks", "4", "--out", str(tmp_path / "report.txt")]
    env = dict(os.environ, ROBUST_QDA_THREADS="2", PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", tool.LAUNCHER, *argv], env=env,
                          capture_output=True, text=True, check=True)
    own_kb, workers_kb, forks = map(int, proc.stdout.split())
    assert forks >= 2
    assert own_kb > 0 and workers_kb > 0

"""Smoke test of the benchmark itself.

Runs every workload on tiny inputs, untraced and traced, and asserts that
the JSON summary names every metric of ``BENCHMARK.json`` with its unit,
that all outputs passed their checks, and that the benchmark refuses to
run in a directory without the package source.  Run from the root of a
source checkout::

    python3 bench/smoke.py
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SUMMARY_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=600)


def check_summary(done: subprocess.CompletedProcess, expected: dict, label: str) -> dict:
    assert done.returncode == 0, f"{label}: exit {done.returncode}\n{done.stderr}"
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(summary) == SUMMARY_KEYS, f"{label}: keys {sorted(summary)}"
    assert summary["correct"] is True, f"{label}: not correct\n{done.stderr}"
    assert summary["failed"] == 0 and summary["attempted"] >= 1, f"{label}: {summary}"
    metrics = summary["metrics"]
    assert set(metrics) == set(expected), f"{label}: metrics differ: {sorted(set(metrics) ^ set(expected))}"
    for name, unit in expected.items():
        value = metrics[name]["value"]
        assert metrics[name]["unit"] == unit, f"{label}: {name} has unit {metrics[name]['unit']}"
        assert isinstance(value, (int, float)) and math.isfinite(value), f"{label}: {name} = {value!r}"
    return {name: m["value"] for name, m in metrics.items()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]
    assert "setup_s" in end_to_end

    for workload in workloads:
        values = check_summary(run_bench(ROOT, workload, 0), end_to_end, f"{workload} untraced")
        assert values["setup_s"] > 0 and values["wall_s"] > 0, values
        layers = check_summary(run_bench(ROOT, workload, 1), per_layer, f"{workload} traced")
        fits = layers["mcd.fit_mcd.calls"]
        if workload == "score-bulk":
            assert fits == 0 and layers["data_io.read_dataset.s"] > 0, layers
        else:
            assert fits > 0 and layers["mcd.c_step.calls"] > 0, layers
        print(f"ok  {workload}: {len(values)} end-to-end and {len(layers)} per-layer metrics")

    bare = ROOT / ".bench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = run_bench(bare, workloads[0], 0)
    shutil.rmtree(bare)
    assert done.returncode != 0 and not done.stdout.strip(), "ran without the package source"
    print("ok  refuses to run without the package source")
    return 0


if __name__ == "__main__":
    sys.exit(main())

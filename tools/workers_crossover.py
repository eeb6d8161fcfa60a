"""Sizes from which two forked workers beat one, for block fits and ``predict``.

Two sweeps run a command in fresh processes at ``ROBUST_QDA_THREADS=1``
and ``2``, in alternating order, and check that every run of a size
writes the same bytes: ``mcd --blocks Q`` on Q blocks of each size in
``BLOCK_ROWS``, and ``predict`` on a 5-feature input of each size in
``ROWS``.  A launcher sets ``cli.MIN_ROWS_PER_WORKER = 1`` and
``mcd._WORKER_BLOCK_ROWS = 0`` in the command's process, so that cap 2
always forks; a cap-2 run that forks no worker stops the tool.  It
reads the peak RSS of the command's own process from ``VmHWM`` (which,
unlike ``RUSAGE_SELF``, does not carry the tool's own peak over
``exec``) and that of its workers from ``RUSAGE_CHILDREN``.  Each run
is timed from outside, as the benchmark times a command.  BLAS is
pinned to one thread unless ``OPENBLAS_NUM_THREADS`` is already set.

The record goes to ``BENCH_workers_crossover.json``, with each sweep's
``crossover``: the smallest size from which two workers have the lower
median wall time at every larger size too.  ``mcd._WORKER_BLOCK_ROWS``
is set from the block sweep's, ``cli.MIN_ROWS_PER_WORKER`` from half the
``predict`` sweep's.

    PYTHONPATH=src python tools/workers_crossover.py [--repeats 5]
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402  (after the BLAS pinning above)

from robustqda import mcd  # noqa: E402
from robustqda.data_io import write_dataset  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
ROWS = (20_000, 50_000, 100_000, 150_000, 200_000, 1_000_000)
BLOCK_ROWS = (1_000, 2_500, 5_000, 10_000, 15_000, 20_000, 25_000, 37_500, 50_000, 62_500, 100_000)
BLOCKS = 4
CAPS = ("1", "2")
P = 5
CENTERS = np.array([[0.0] * P, [4.0] * P, [-4.0, 4.0, -4.0, 4.0, -4.0]])

# Runs one CLI command in this process, with every row range and every
# block stack given to the pool, then prints the peak RSS of the process
# and of its waited-for children, in kB, and the number of forks.
LAUNCHER = (
    "import resource, sys\n"
    "forks = []\n"
    "sys.addaudithook(lambda event, args: event == 'os.fork' and forks.append(event))\n"
    "from robustqda import cli, mcd\n"
    "cli.MIN_ROWS_PER_WORKER = 1\n"
    "mcd._WORKER_BLOCK_ROWS = 0\n"
    "code = cli.main(sys.argv[1:])\n"
    "with open('/proc/self/status') as status:\n"
    "    hwm = next(line.split()[1] for line in status if line.startswith('VmHWM:'))\n"
    "print(hwm, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, len(forks))\n"
    "sys.exit(code)\n"
)


def sample(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Three shifted 5-D normal classes of n // 3 rows each, with 10% of
    the rows drawn wide as outliers."""
    rng = np.random.default_rng(seed)
    y = np.repeat([1, 2, 3], -(-n // 3))[:n]
    X = rng.standard_normal((n, P)) + CENTERS[y - 1]
    X[rng.random(n) < 0.1] *= 6.0
    return X, y


def block_sample(n: int, seed: int) -> np.ndarray:
    """5-D normal rows with unequal variances and 10% shifted outliers."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, P)) * np.sqrt(np.arange(1, P + 1))
    X[: n // 10] += 8.0
    return X


def block_count(size: int) -> int:
    """``BLOCKS``, or the fewest blocks of ``size`` rows whose two
    candidates each fill at least two stacks."""
    return max(BLOCKS, (mcd._STACK_ROWS // size) // 2 + 1)


def run(argv: list, cap: str) -> dict:
    """One launcher run of ``robust-qda argv`` at ``cap``; ``argv`` ends
    with ``--out FILE``."""
    env = dict(os.environ, ROBUST_QDA_THREADS=cap, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", LAUNCHER, *argv], env=env,
                          capture_output=True, text=True, check=True)
    wall = time.perf_counter() - start
    self_kb, children_kb, forks = map(int, proc.stdout.split())
    if cap != "1" and not forks:
        raise SystemExit(f"robust-qda {' '.join(argv)} at cap {cap} forked no worker")
    digest = hashlib.sha256(Path(argv[-1]).read_bytes()).hexdigest()
    return {"wall_s": wall, "self_mb": self_kb / 1024, "children_mb": children_kb / 1024,
            "sha256": digest}


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": [round(v, 4) for v in values], "median": round(med, 4),
            "q1": round(q1, 4), "q3": round(q3, 4)}


def crossover(rows: list, key: str):
    """The smallest ``row[key]`` from which two workers win at every
    larger size too, or None if they lose at the largest."""
    found = None
    for row in reversed(rows):
        if row["speedup_cap2_over_cap1"] <= 1.0:
            break
        found = row[key]
    return found


def sweep(key: str, sizes, argv_for, work: Path, repeats: int) -> dict:
    """Run the command of ``argv_for(size)`` (no ``--out``; it also gives
    the row's own fields) ``repeats`` times per cap, for every size."""
    rows = []
    for size in sizes:
        argv, fields = argv_for(size)
        runs = {cap: [] for cap in CAPS}
        for rep in range(repeats):
            for cap in CAPS if rep % 2 == 0 else CAPS[::-1]:
                runs[cap].append(run([*argv, "--out", str(work / f"out_{cap}")], cap))
        if len({r["sha256"] for cap in CAPS for r in runs[cap]}) != 1:
            raise SystemExit(f"{argv[0]} at {key} {size}: outputs differ between runs")
        row = {key: size, **fields}
        for cap in CAPS:
            row[f"cap{cap}"] = {
                "wall_s": spread([r["wall_s"] for r in runs[cap]]),
                "peak_rss_self_mb": round(max(r["self_mb"] for r in runs[cap]), 1),
                "peak_rss_children_mb": round(max(r["children_mb"] for r in runs[cap]), 1),
            }
        wins = sum(b["wall_s"] < a["wall_s"] for a, b in zip(runs["1"], runs["2"]))
        row["cap2_wins"] = f"{wins} of {repeats}"
        row["speedup_cap2_over_cap1"] = round(
            row["cap1"]["wall_s"]["median"] / row["cap2"]["wall_s"]["median"], 3)
        rows.append(row)
        print(json.dumps(row), flush=True)
    return {"rows": rows, "crossover": crossover(rows, key)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        data, model = work / "data.csv", work / "model.json"

        def mcd_argv(size):
            q = block_count(size)
            write_dataset(data, block_sample(q * size, seed=size))
            fields = {"blocks": q, "stacks": len(mcd._plan_stacks([size] * q))}
            return ["mcd", "--data", str(data), "--blocks", str(q)], fields

        def predict_argv(size):
            write_dataset(data, sample(size, seed=size)[0])
            return ["predict", "--model", str(model), "--data", str(data)], {}

        blocks = sweep("block_rows", BLOCK_ROWS, mcd_argv, work, args.repeats)
        X, y = sample(10_000, seed=0)
        write_dataset(data, X, y=y)
        subprocess.run([sys.executable, "-m", "robustqda.cli", "train", "--data", str(data),
                        "--label-col", "label", "--out", str(model)],
                       env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                       capture_output=True, check=True)
        predict = sweep("rows", ROWS, predict_argv, work, args.repeats)
    record = {
        "commands": "robust-qda mcd and predict, timed from outside in fresh processes",
        "repeats": args.repeats,
        "os_cpu_count": os.cpu_count(),
        "sched_affinity": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "stack_rows": mcd._STACK_ROWS,
        "mcd": blocks,
        "predict": predict,
    }
    out = ROOT / "BENCH_workers_crossover.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()

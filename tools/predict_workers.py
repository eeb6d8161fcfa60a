"""Row count at which ``predict`` gains from forked worker processes.

Writes a 5-feature input of each size in ``ROWS``, then runs
``robust-qda predict`` on it in fresh processes at
``ROBUST_QDA_THREADS=1`` and ``2``, in alternating order, checking that
both write the same bytes.  ``cli.MIN_ROWS_PER_WORKER`` is set to 1 in
those processes, so that cap 2 always runs two workers.  Each run is
timed from outside, as the benchmark times a command; inside it, a
launcher reads the peak RSS of the command's own process
(``RUSAGE_SELF``) and of its worker processes (``RUSAGE_CHILDREN``).
Whether a second core was free shows in ``two_spins_over_one``, taken
before and after the sweep: two processes spinning at once take about
as long as one when it is, and twice as long when it is not.  BLAS is
pinned to one thread unless ``OPENBLAS_NUM_THREADS`` is already set.

The record goes to ``BENCH_predict_workers.json``, with
``crossover_rows_per_worker``: half the smallest size from which two
workers have the lower median wall time at every larger size too.
``cli.MIN_ROWS_PER_WORKER`` is set from it.

    PYTHONPATH=src python tools/predict_workers.py [--repeats 5] [--out FILE]
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

from robustqda.data_io import write_dataset  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
ROWS = (20_000, 50_000, 100_000, 150_000, 200_000, 1_000_000)
CAPS = ("1", "2")
P = 5
CENTERS = np.array([[0.0] * P, [4.0] * P, [-4.0, 4.0, -4.0, 4.0, -4.0]])

# Runs one CLI command in this process, with every row count split over
# the cap, then prints the peak RSS of the process and of its waited-for
# children, in kB.
LAUNCHER = (
    "import resource, sys\n"
    "from robustqda import cli\n"
    "cli.MIN_ROWS_PER_WORKER = 1\n"
    "code = cli.main(sys.argv[1:])\n"
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,"
    " resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
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


def run_predict(model: Path, data: Path, out: Path, cap: str) -> dict:
    env = dict(os.environ, ROBUST_QDA_THREADS=cap, PYTHONPATH=str(ROOT / "src"))
    argv = ["predict", "--model", str(model), "--data", str(data), "--out", str(out)]
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", LAUNCHER, *argv], env=env,
                          capture_output=True, text=True, check=True)
    wall = time.perf_counter() - start
    self_kb, children_kb = map(int, proc.stdout.split())
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    return {"wall_s": wall, "self_mb": self_kb / 1024, "children_mb": children_kb / 1024,
            "sha256": digest}


def spin() -> float:
    """Count in pure Python for a fixed number of steps; returns the time."""
    start = time.perf_counter()
    total = 0
    for i in range(3_000_000):
        total += i
    return time.perf_counter() - start


def core_probe() -> float:
    """Wall time of two forked processes spinning at once over that of
    one: about 1 when a second core is free, about 2 when it is not."""
    import multiprocessing

    one = spin()
    context = multiprocessing.get_context("fork")
    procs = [context.Process(target=spin) for _ in range(2)]
    start = time.perf_counter()
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join()
    return round((time.perf_counter() - start) / one, 2)


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": [round(v, 4) for v in values], "median": round(med, 4),
            "q1": round(q1, 4), "q3": round(q3, 4)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default=str(ROOT / "BENCH_predict_workers.json"))
    args = parser.parse_args()
    rows = []
    probe_before = core_probe()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        train, model = work / "train.csv", work / "model.json"
        X, y = sample(10_000, seed=0)
        write_dataset(train, X, y=y)
        subprocess.run([sys.executable, "-m", "robustqda.cli", "train", "--data", str(train),
                        "--label-col", "label", "--out", str(model)],
                       env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                       capture_output=True, check=True)
        for n in ROWS:
            data = work / "features.csv"
            write_dataset(data, sample(n, seed=n)[0])
            runs = {cap: [] for cap in CAPS}
            for rep in range(args.repeats):
                for cap in CAPS if rep % 2 == 0 else CAPS[::-1]:
                    runs[cap].append(run_predict(model, data, work / f"pred_{cap}.csv", cap))
            digests = {run["sha256"] for cap in CAPS for run in runs[cap]}
            if len(digests) != 1:
                raise SystemExit(f"{n} rows: outputs differ between runs")
            row = {"rows": n}
            for cap in CAPS:
                row[f"cap{cap}"] = {
                    "wall_s": spread([r["wall_s"] for r in runs[cap]]),
                    "peak_rss_self_mb": round(max(r["self_mb"] for r in runs[cap]), 1),
                    "peak_rss_children_mb": round(max(r["children_mb"] for r in runs[cap]), 1),
                }
            wins = sum(b["wall_s"] < a["wall_s"] for a, b in zip(runs["1"], runs["2"]))
            row["cap2_wins"] = f"{wins} of {args.repeats}"
            row["speedup_cap2_over_cap1"] = round(
                row["cap1"]["wall_s"]["median"] / row["cap2"]["wall_s"]["median"], 3)
            rows.append(row)
            print(json.dumps(row), flush=True)
    crossover = None
    for row in reversed(rows):
        if row["speedup_cap2_over_cap1"] <= 1.0:
            break
        crossover = row["rows"] // 2
    record = {
        "command": "robust-qda predict, 5 features, 3 classes, timed from outside in fresh processes",
        "repeats": args.repeats,
        "os_cpu_count": os.cpu_count(),
        "sched_affinity": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "two_spins_over_one": {"before": probe_before, "after": core_probe()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "rows": rows,
        "crossover_rows_per_worker": crossover,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()

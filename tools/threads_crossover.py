"""Block size at which fitting blocks on forked workers starts to pay off.

Times ``blockwise_mcd`` calls at each block size, with the block fits
forced onto the worker pool, at ``ROBUST_QDA_THREADS=1`` and ``2`` in
alternating order, and prints a JSON record of the median time per
call.  The pool maps over stacks of candidates (``mcd._plan_stacks``),
so each size takes 4 blocks, or more where 4 blocks would fill only one
stack: enough that their candidates form two stacks.  Each sample
repeats the call until it has fitted about ``SAMPLE_ROWS`` rows, so
that small blocks are not timed from a single call of a few tens of
milliseconds.  BLAS is pinned to one thread, as the benchmark and the
command-line interface pin it, so the package's own pool is the only
parallelism.  The crossover constant ``mcd._WORKER_BLOCK_ROWS``, which
``mcd._fit_blocks`` reads, is set from this sweep; the tool sets it to 0
to force the pool.

    PYTHONPATH=src python tools/threads_crossover.py [--repeats 5]
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the BLAS pinning above)

from robustqda import block_mcd, mcd  # noqa: E402

BLOCKS = 4
P = 5
BLOCK_ROWS = (1_000, 2_500, 5_000, 10_000, 15_000, 20_000, 25_000)
THREADS = ("1", "2")
SAMPLE_ROWS = 160_000


def sample(n: int, seed: int) -> np.ndarray:
    """5-D normal rows with unequal variances and 10% shifted outliers."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, P)) * np.sqrt(np.arange(1, P + 1))
    X[: n // 10] += 8.0
    return X


def block_count(size: int) -> int:
    """``BLOCKS``, or the fewest blocks of ``size`` rows whose two
    candidates each fill at least two stacks."""
    return max(BLOCKS, (mcd._STACK_ROWS // size) // 2 + 1)


def fit_seconds(X: np.ndarray, blocks: int, threads: str) -> float:
    """Seconds per ``blockwise_mcd`` call, over enough calls to fit
    about ``SAMPLE_ROWS`` rows."""
    os.environ["ROBUST_QDA_THREADS"] = threads
    calls = max(1, SAMPLE_ROWS // X.shape[0])
    start = time.perf_counter()
    for _ in range(calls):
        block_mcd.blockwise_mcd(X, blocks=blocks, rng=0)
    return (time.perf_counter() - start) / calls


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    mcd._WORKER_BLOCK_ROWS = 0
    rows = []
    for size in BLOCK_ROWS:
        blocks = block_count(size)
        X = sample(blocks * size, seed=size)
        fit_seconds(X, blocks, "1")  # warm-up
        times = {t: [] for t in THREADS}
        for rep in range(args.repeats):
            order = THREADS if rep % 2 == 0 else THREADS[::-1]
            for t in order:
                times[t].append(fit_seconds(X, blocks, t))
        t1, t2 = (statistics.median(times[t]) for t in THREADS)
        rows.append({
            "block_rows": size,
            "blocks": blocks,
            "stacks": len(mcd._plan_stacks([size] * blocks)),
            "t1_s": {"runs": [round(v, 4) for v in times["1"]], "median": round(t1, 4)},
            "t2_s": {"runs": [round(v, 4) for v in times["2"]], "median": round(t2, 4)},
            "speedup_t2_over_t1": round(t1 / t2, 3),
        })
        print(json.dumps(rows[-1]), flush=True)
    record = {
        "stack_rows": mcd._STACK_ROWS,
        "dims": P,
        "repeats": args.repeats,
        "sample_rows": SAMPLE_ROWS,
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "rows": rows,
    }
    print(json.dumps(record, indent=2))


if __name__ == "__main__":
    main()

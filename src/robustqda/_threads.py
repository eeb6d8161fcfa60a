"""Worker pools: threads for block fits, forked processes for replications
and for ``predict``'s row ranges.

``ROBUST_QDA_THREADS`` is the one cap on parallel work (default: the CPU
count), validated by :func:`worker_count` before any pool starts.

* :func:`ordered_map` fits the stacks of block candidates of one
  ``blockwise_mcd`` call (``mcd._fit_blocks``) on threads, and only when
  every block has at least ``block_mcd._THREADED_BLOCK_ROWS`` rows.
  Smaller fits spend much of their time in Python-level per-step
  overhead that holds the GIL, so threads would only contend for it;
  they run one after another.  Blocks of up to ``mcd._STACK_ROWS // 2``
  rows share stacks, so a call has work for two threads only when its
  candidates fill two stacks.
* :func:`process_map` runs the replications of ``sim.run_study`` on up to
  ``min(cap, reps)`` forked processes, since each one is a whole study
  fit that threads cannot overlap.  Inside each worker the cap reads
  ``max(1, cap // workers)``, so block threads started there never add
  up to more than the cap.  Every worker holds one replication's data,
  so ``simulate`` needs about ``min(cap, reps)`` times the memory of one.
  While other threads are alive the replications run in-process, since
  ``fork`` cannot copy a process with threads safely.
* ``predict`` maps the same :func:`process_map` over up to
  ``min(cap, rows // cli.MIN_ROWS_PER_WORKER)`` contiguous row ranges of
  its input, each parsed, scored and formatted in a worker, since CSV
  parsing and float formatting hold the GIL.  The parent holds the input
  and the output text, each worker its own range; the texts are joined
  in row order.

Per-class fits run serially.  Results are collected in task order and
neither pool changes any arithmetic, so the cap, like the core count,
only affects wall-clock time.
"""
from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from .errors import ConfigError, WorkerDied

_ENV_VAR = "ROBUST_QDA_THREADS"

T = TypeVar("T")
R = TypeVar("R")


def worker_count() -> int:
    """Resolve the worker cap from the environment (default: CPU count)."""
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return os.cpu_count() or 1
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"{_ENV_VAR} must be a positive integer, got {raw!r}") from None
    if value < 1:
        raise ConfigError(f"{_ENV_VAR} must be a positive integer, got {raw!r}")
    return value


def ordered_map(fn: Callable[[T], R], items: Sequence[T] | Iterable[T]) -> list[R]:
    """Apply ``fn`` to every item, preserving input order in the result.

    Runs on a thread pool when more than one worker is allowed; results do
    not depend on the worker count.
    """
    items = list(items)
    workers = min(worker_count(), len(items))
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def process_map(fn: Callable[[T], R], items: Sequence[T] | Iterable[T]) -> list[R]:
    """Apply ``fn`` to every item on forked processes, in input order.

    Uses ``min(worker_count(), len(items))`` processes.  With one, this
    is the plain loop in the calling process, and ``multiprocessing`` is
    never imported.  The loop also runs where the ``fork`` start method is
    not offered, and while other threads run in the calling process: a
    forked child would inherit any lock they hold, but not the thread that
    would release it.

    ``fn`` and the items reach the workers through the pool's initializer,
    whose arguments a forked child inherits without pickling, so ``fn``
    may be a closure over large data and an item need not pickle; only
    item indices and the results travel by pickle.  An exception raised
    by ``fn`` is re-raised here with its type
    and message, the first in item order winning as in the loop; a worker
    that dies raises ``WorkerDied``.
    """
    items = list(items)
    cap = worker_count()
    workers = min(cap, len(items))
    if workers > 1 and threading.active_count() == 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            return _fork_map(fn, items, multiprocessing.get_context("fork"), workers, cap)
    return [fn(item) for item in items]


def _fork_map(fn, items: list, context, workers: int, cap: int) -> list:
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(
        max_workers=workers,
        mp_context=context,
        initializer=_start_worker,
        initargs=(fn, items, max(1, cap // workers)),
    )
    try:
        return list(pool.map(_call_worker_fn, range(len(items))))
    except BrokenProcessPool:
        raise WorkerDied(f"a worker process died before all {len(items)} tasks finished") from None
    finally:
        pool.shutdown(cancel_futures=True)


# The function a forked worker applies and the items it applies it to;
# set once by _start_worker.
_worker_fn: Callable | None = None
_worker_items: list = []


def _start_worker(fn: Callable, items: list, cap: int) -> None:
    global _worker_fn, _worker_items
    _worker_fn, _worker_items = fn, items
    os.environ[_ENV_VAR] = str(cap)


def _call_worker_fn(index: int):
    return _worker_fn(_worker_items[index])

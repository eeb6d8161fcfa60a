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
  fit that threads cannot overlap.  Each worker is one ``os.fork``
  child, dealt items round-robin, that sends all its results through its
  own pipe when done; every child is reaped on every path, so no call
  leaves a process behind.  Inside each worker the cap reads
  ``max(1, cap // workers)``, so block threads started there never add
  up to more than the cap.  Every worker holds one replication's data at
  a time, so ``simulate`` needs about ``min(cap, reps)`` times the memory
  of one.  While other threads are alive the replications run
  in-process, since ``fork`` cannot copy a process with threads safely.
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
import pickle
import sys
import threading
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
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def process_map(fn: Callable[[T], R], items: Sequence[T] | Iterable[T]) -> list[R]:
    """Apply ``fn`` to every item on forked processes, in input order.

    Forks ``min(worker_count(), len(items))`` children with ``os.fork``,
    item ``i`` going to child ``i % workers``.  With one worker this is
    the plain loop in the calling process.  The loop also runs where
    ``os.fork`` does not exist, and while other threads run in the
    calling process: a forked child would inherit any lock they hold, but
    not the thread that would release it.

    A child inherits ``fn`` and the items without pickling, so ``fn`` may
    be a closure over large data and an item need not pickle; only the
    results and errors travel by pickle, one pipe per child.  An exception
    raised by ``fn`` is re-raised here with its type and message, the
    first in item order winning as in the loop; a child that ends any
    other way (killed, ``os._exit``, ``SystemExit``, a result that does
    not pickle) raises ``WorkerDied``.
    """
    items = list(items)
    cap = worker_count()
    workers = min(cap, len(items))
    if workers > 1 and threading.active_count() == 1 and hasattr(os, "fork"):
        return _fork_map(fn, items, workers, max(1, cap // workers))
    return [fn(item) for item in items]


def _fork_map(fn, items: list, workers: int, worker_cap: int) -> list:
    _flush_std_streams()
    pids, pipes = [], []
    try:
        for worker in range(workers):
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _run_worker(fn, items, worker, workers, worker_cap, write_fd)
            finally:
                os.close(write_fd)
            pids.append(pid)
        # A child writes only when it is done, so reading the pipes in
        # worker order cannot deadlock.
        outcomes, died = [], False
        for worker, pid in enumerate(pids):
            payload = pipes[worker].read()
            _, status = os.waitpid(pid, 0)
            pids[worker] = None
            if status == 0 and payload:
                outcomes += pickle.loads(payload)
            else:
                died = True
    except BaseException:
        from signal import SIGKILL  # only here, to keep it out of every start

        for pid in pids:
            if pid is not None:
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
        raise
    finally:
        for pipe in pipes:
            pipe.close()
    if died:
        raise WorkerDied(f"a worker process died before all {len(items)} tasks finished")
    # Every item before the first error in item order has its result, so
    # the first error is met before any item a stopped child left undone.
    outcomes.sort(key=lambda outcome: outcome[0])
    for _, ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, _, value in outcomes]


def _run_worker(fn, items: list, worker: int, workers: int, cap: int, write_fd: int):
    """The whole life of a forked child: apply ``fn`` to items ``worker``,
    ``worker + workers``, ... up to the first error, send the list of
    ``(index, ok, value)`` through ``write_fd``, and leave by ``os._exit``,
    never returning into the caller's stack."""
    code = 1
    try:
        os.environ[_ENV_VAR] = str(cap)
        done = []
        for index in range(worker, len(items), workers):
            try:
                done.append((index, True, fn(items[index])))
            except Exception as exc:
                done.append((index, False, exc))
                break
        with open(write_fd, "wb") as pipe:
            pickle.dump(done, pipe)
        _flush_std_streams()
        code = 0
    finally:
        os._exit(code)


def _flush_std_streams() -> None:
    """Flush stdout and stderr, so that text buffered before a fork is
    written once, by the parent, and text a child wrote is not lost."""
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError, OSError):
            pass

"""Worker-pool helper.

``ROBUST_QDA_THREADS`` caps the number of threads used for independent
sub-fits.  The only caller is ``blockwise_mcd``, which fits its blocks
through :func:`ordered_map` when every block has at least
``block_mcd._THREADED_BLOCK_ROWS`` rows.  Smaller blocks are fitted
serially: their fits spend most of their time in Python-level per-step
overhead that holds the GIL, so threads would only contend for it.
Per-class fits and study replications always run serially.  The cap,
like the core count, only affects wall-clock time: results are collected
in task order, and the block count reads neither.  The cap is validated
on every ``blockwise_mcd`` call, whether or not the pool runs.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from .errors import ConfigError

_ENV_VAR = "ROBUST_QDA_THREADS"

T = TypeVar("T")
R = TypeVar("R")


def worker_count() -> int:
    """Resolve the thread cap from the environment (default: CPU count)."""
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

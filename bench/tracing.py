"""Outside-in tracing of the package's public functions.

The tracer wraps functions from outside, so no file of the package
changes.  A wrapper is installed at every module attribute that holds the
original function object, because callers such as ``block_mcd`` and
``qda`` import ``fit_mcd``, ``reweight``, ``ordered_map`` and
``blockwise_mcd`` by name; patching only the defining module would miss
those calls.  Spans carry the id of the span that was open when they
started, including spans opened on the worker threads of ``ordered_map``,
whose tasks are attributed to the ``ordered_map`` span that ran them.
Spans stay in memory until the caller writes them out.
"""
from __future__ import annotations

import math
import os
import sys
import threading
import time
from dataclasses import dataclass

PACKAGE = "robustqda"


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    info: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _file_bytes(args, kwargs) -> dict:
    source = args[0] if args else kwargs.get("source")
    try:
        return {"bytes": os.path.getsize(source)}
    except (OSError, TypeError):
        return {"bytes": 0}


def _text_bytes(args, kwargs) -> dict:
    text = args[1] if len(args) > 1 else kwargs.get("text", "")
    return {"bytes": len(text.encode("utf-8"))}


def _rows(args, kwargs) -> dict:
    X = args[1] if len(args) > 1 else kwargs.get("X")
    return {"rows": int(getattr(X, "shape", (0,))[0])}


def _fit_objective(result) -> dict:
    return {"log_det": math.log(result.det_uncorrected)}


def _block_plan(result) -> dict:
    diag = result.diagnostics
    return {"blocks": int(diag.q), "max_block_rows": int(max(diag.block_sizes))}


# (module, attribute, span name, info from the arguments, info from the result)
TARGETS = (
    ("data_io", "read_dataset", "data_io.read_dataset", _file_bytes, None),
    ("data_io", "write_predictions_csv", "data_io.write_predictions_csv", None, None),
    ("fileio", "write_text_atomic", "fileio.write_text_atomic", _text_bytes, None),
    ("model_io", "load_model", "model_io.load_model", None, None),
    ("model_io", "save_model", "model_io.save_model", None, None),
    ("robust_scale", "fit_standardizer", "robust_scale.standardize", None, None),
    ("robust_scale", "standardize", "robust_scale.standardize", None, None),
    ("mcd", "fit_mcd", "mcd.fit_mcd", None, _fit_objective),
    ("mcd", "c_step", "mcd.c_step", None, None),
    ("mcd", "raw_from_subset", "mcd.raw_from_subset", None, None),
    ("mcd", "consistency_factor", "mcd.consistency_factor", None, None),
    ("mcd", "reweight", "mcd.reweight", None, None),
    ("block_mcd", "blockwise_mcd", "block_mcd.blockwise_mcd", None, _block_plan),
    ("block_mcd", "median_pool", "block_mcd.median_pool", None, None),
    ("block_mcd", "select_and_pool", "block_mcd.select_and_pool", None, None),
    ("qda", "fit_qda", "qda.fit_qda", None, None),
    ("qda", "classify_rows", "qda.classify_rows", _rows, None),
    ("lbplot", "lb_points", "lbplot.lb_points", None, None),
    ("lbplot", "write_lb_csv", "lbplot.write_lb_csv", None, None),
    ("lbplot", "render_lb_svg", "lbplot.render_lb_svg", None, None),
    ("sim", "generate", "sim.generate", None, None),
    ("sim", "run_study", "sim.run_study", None, None),
    ("sim", "write_study_report", "sim.write_study_report", None, None),
)
FROM_SIGMA = "core.from_sigma"
ORDERED_MAP = "threads.ordered_map"
TASK = "threads.task"


class Tracer:
    """Records spans from wrapped package functions while installed."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._restore: list[tuple] = []
        self.spans: list[Span] = []
        self.missing: set[str] = set()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        return sid

    def _record(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def wrap(self, name, fn, arg_info=None, result_info=None, adapt=None):
        """Return ``fn`` wrapped so every call records one span."""
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            sid = tracer._new_id()
            info = arg_info(args, kwargs) if arg_info else None
            if adapt is not None:
                args, extra = adapt(sid, args)
                info = {**(info or {}), **extra}
            span = Span(sid, parent, name, threading.get_ident(), 0.0, 0.0, info)
            stack.append(sid)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer._record(span)
            if result_info is not None:
                try:
                    span.info = {**(info or {}), **result_info(result)}
                except (AttributeError, TypeError, ValueError):
                    # The result changed shape in a later version: the
                    # metrics that need this info are reported missing.
                    pass
            return result

        return wrapper

    def _task_adapter(self, worker_count):
        tracer = self

        def adapt(map_sid, args):
            fn, items = args[0], list(args[1])

            def task(item):
                stack = tracer._stack()
                saved = list(stack)
                stack[:] = [map_sid]
                sid = tracer._new_id()
                stack.append(sid)
                start = time.perf_counter()
                try:
                    return fn(item)
                finally:
                    end = time.perf_counter()
                    stack[:] = saved
                    tracer._record(Span(sid, map_sid, TASK, threading.get_ident(), start, end))

            workers = max(1, min(worker_count(), len(items)))
            return (task, items), {"workers": workers}

        return adapt

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def install(self) -> None:
        """Wrap every target found; names that no longer exist are noted in
        ``missing`` instead of failing the run."""
        for mod_name, attr, name, arg_info, result_info in TARGETS:
            module = sys.modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.add(name)
                continue
            self._replace_everywhere(original, self.wrap(name, original, arg_info, result_info))

        threads = sys.modules.get(f"{PACKAGE}._threads")
        ordered_map = getattr(threads, "ordered_map", None)
        worker_count = getattr(threads, "worker_count", None)
        if callable(ordered_map) and callable(worker_count):
            wrapped = self.wrap(ORDERED_MAP, ordered_map, adapt=self._task_adapter(worker_count))
            self._replace_everywhere(ordered_map, wrapped)
        else:
            self.missing.add(ORDERED_MAP)

        core = sys.modules.get(f"{PACKAGE}.core")
        cls = getattr(core, "LocationScatter", None)
        descriptor = vars(cls).get("from_sigma") if cls is not None else None
        if isinstance(descriptor, classmethod):
            wrapped = self.wrap(FROM_SIGMA, descriptor.__func__)
            setattr(cls, "from_sigma", classmethod(wrapped))
            self._restore.append((cls, "from_sigma", descriptor))
        else:
            self.missing.add(FROM_SIGMA)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def take(self) -> list[Span]:
        """Hand over the recorded spans and start a fresh list."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.sid] = s.seconds - covered
    return out


# Per-layer metrics and their units, in the order they are reported.
PER_LAYER = {
    "data_io.read_dataset.s": "s",
    "data_io.read_dataset.mb_per_s": "MB/s",
    "data_io.write_predictions_csv.s": "s",
    "fileio.write_text_atomic.s": "s",
    "fileio.write_text_atomic.bytes": "bytes",
    "model_io.load_model.s": "s",
    "model_io.save_model.s": "s",
    "robust_scale.standardize.s": "s",
    "mcd.fit_mcd.calls": "count",
    "mcd.fit_mcd.s": "s",
    "mcd.fit_mcd.self_s": "s",
    "mcd.c_step.calls": "count",
    "mcd.c_step.s": "s",
    "mcd.raw_from_subset.calls": "count",
    "mcd.polish_swaps": "count",
    "mcd.consistency_factor.calls": "count",
    "mcd.reweight.s": "s",
    "mcd.objective_log_det": "ln",
    "core.from_sigma.calls": "count",
    "core.from_sigma.s": "s",
    "block_mcd.blockwise_mcd.s": "s",
    "block_mcd.blocks": "count",
    "block_mcd.max_block_rows": "rows",
    "block_mcd.median_pool.calls": "count",
    "block_mcd.select_and_pool.s": "s",
    "threads.ordered_map.s": "s",
    "threads.task_busy_s": "s",
    "threads.parallel_efficiency": "ratio",
    "qda.fit_qda.s": "s",
    "qda.classify_rows.s": "s",
    "qda.classify_rows.rows_per_s": "rows/s",
    "lbplot.lb_points.s": "s",
    "lbplot.write_lb_csv.s": "s",
    "lbplot.render_lb_svg.s": "s",
    "sim.generate.s": "s",
    "sim.run_study.s": "s",
    "sim.write_study_report.s": "s",
    "cli.train.s": "s",
    "cli.lbplot.s": "s",
    "cli.predict.s": "s",
    "cli.simulate.s": "s",
    "trace.overhead_s": "s",
}
# Metrics that repeat exactly from one traced pass to the next.
COUNTS = tuple(name for name, unit in PER_LAYER.items() if unit in ("count", "bytes", "rows", "ln"))


class _Missing(Exception):
    pass


def layer_metrics(spans: list[Span], missing: set[str]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.  A metric whose span or span
    info is unavailable is left out."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def of(name: str) -> list[Span]:
        if name in missing:
            raise _Missing(name)
        return by_name.get(name, [])

    def seconds(name: str) -> float:
        return sum(s.seconds for s in of(name))

    def info(name: str, key: str) -> list:
        values = [(s.info or {}).get(key) for s in of(name)]
        if any(v is None for v in values):
            raise _Missing(name)
        return values

    def rate(amount: float, secs: float) -> float:
        return amount / secs if secs > 0 else 0.0

    def polish_swaps() -> int:
        # Exchange-polish refits are the raw_from_subset calls made by
        # fit_mcd itself, except the one that opens each start (that call
        # is followed directly by the start's first c_step).
        wanted = ("mcd.raw_from_subset", "mcd.c_step")
        fits = {s.sid for s in of("mcd.fit_mcd")}
        kids: dict[int, list[Span]] = {}
        for s in of(wanted[0]) + of(wanted[1]):
            if s.parent in fits:
                kids.setdefault(s.parent, []).append(s)
        swaps = 0
        for seq in kids.values():
            seq.sort(key=lambda s: s.start)
            for i, s in enumerate(seq):
                opens_start = i + 1 < len(seq) and seq[i + 1].name == wanted[1]
                swaps += s.name == wanted[0] and not opens_start
        return swaps

    def task_busy() -> float:
        of(ORDERED_MAP)  # tasks are only seen while the pool is wrapped
        return seconds(TASK)

    def efficiency() -> float:
        maps = of(ORDERED_MAP)
        capacity = sum(s.seconds * w for s, w in zip(maps, info(ORDERED_MAP, "workers")))
        return rate(task_busy(), capacity)

    def fit_self() -> float:
        own = self_times(spans)
        return sum(own[s.sid] for s in of("mcd.fit_mcd"))

    rules = {
        "data_io.read_dataset.mb_per_s": lambda: rate(
            sum(info("data_io.read_dataset", "bytes")) / 1e6, seconds("data_io.read_dataset")
        ),
        "fileio.write_text_atomic.bytes": lambda: sum(info("fileio.write_text_atomic", "bytes")),
        "mcd.fit_mcd.self_s": fit_self,
        "mcd.polish_swaps": polish_swaps,
        # fsum is exact, so the order in which threads finished cannot
        # change the total.
        "mcd.objective_log_det": lambda: math.fsum(info("mcd.fit_mcd", "log_det")),
        "block_mcd.blocks": lambda: sum(info("block_mcd.blockwise_mcd", "blocks")),
        "block_mcd.max_block_rows": lambda: max(
            info("block_mcd.blockwise_mcd", "max_block_rows"), default=0
        ),
        "threads.task_busy_s": task_busy,
        "threads.parallel_efficiency": efficiency,
        "qda.classify_rows.rows_per_s": lambda: rate(
            sum(info("qda.classify_rows", "rows")), seconds("qda.classify_rows")
        ),
    }
    out: dict[str, float] = {}
    for metric in PER_LAYER:
        try:
            if metric in rules:
                value = rules[metric]()
            elif metric.endswith(".calls"):
                value = len(of(metric[: -len(".calls")]))
            elif metric.endswith(".s"):
                value = seconds(metric[: -len(".s")])
            else:
                continue  # supplied by the caller (trace.overhead_s)
        except _Missing:
            continue
        out[metric] = float(value)
    return out

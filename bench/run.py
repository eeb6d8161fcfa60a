"""End-to-end benchmark of the ``robust-qda`` command line.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload fit-diagnose --seed 1 --seconds 30 --trace 0

The workload's inputs are drawn from ``--seed``.  With ``--trace 0`` each
command of the workload runs in a fresh ``python -m robustqda.cli``
child, one after another (a closed loop with one client), repeating the
command sequence for ``--seconds`` seconds; the benchmark times each
sequence and reads each child's peak RSS from outside.  With ``--trace 1``
the benchmark instead calls ``robustqda.cli.main`` in its own process,
alternating untraced and traced passes, and reports per-layer metrics
from wrappers installed around the package's public functions.

In both modes every output file is hashed after every pass and must
match the first pass, and one untimed pass at ``ROBUST_QDA_THREADS=1``
must produce the same bytes.  Outputs are then checked against the
generator's truth.  A record with the environment, every sample and the
hashes is written to ``.bench_run/results/``; the last line of standard
output is the JSON summary.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
NPROC = len(os.sched_getaffinity(0))
# BLAS and OpenMP pools are pinned to one thread: the package's own pool
# supplies the parallelism, so workers x BLAS threads never exceed cores.
THREAD_ENV = {
    "ROBUST_QDA_THREADS": str(NPROC),
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "clean_accuracy": "ratio",
    "noise_flag_rate": "ratio",
}
# error_rate and kl_max are printed and recorded but kept out of the JSON
# summary: error_rate is 0 on a healthy run (failures show in "failed"),
# and kl_max, one fit per class, spreads too widely from seed to seed to
# carry a bound, so the workloads gate it instead.
SETUP_IMPORTS = 5
MIN_PASSES = 3
MAX_LOOP_S = 90
COMMAND_TIMEOUT_S = 150


class SetupError(RuntimeError):
    """A command the benchmark needs for its own set-up failed."""


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def child_env(threads: int) -> dict:
    env = {**os.environ, **THREAD_ENV, "ROBUST_QDA_THREADS": str(threads)}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


def run_child(argv: list, env: dict, log_file) -> tuple:
    """Run one child to completion; returns (exit code, seconds, peak RSS MB).

    ``os.wait4`` reaps the child so that its own peak RSS is read, and a
    timer kills it if it outlives ``COMMAND_TIMEOUT_S``.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env,
                            stdout=log_file, stderr=log_file)
    killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


def digest(paths: list) -> dict:
    out = {}
    for path in paths:
        try:
            out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        except OSError:
            out[path.name] = None
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "robustqda").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(inputs: dict) -> dict:
    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": NPROC,
        "threads": dict(THREAD_ENV),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "platform": platform.platform(),
        "inputs": inputs,
    }


class Ledger:
    """Counts command runs and the ones that failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def compare(ledger: Ledger, commands: list, hashes: list, reference: list, label: str) -> None:
    for cmd, got, want in zip(commands, hashes, reference):
        if got != want:
            ledger.problems.append(f"{label}: {cmd.name} outputs differ from the first pass")
            ledger.failed += 1


def import_seconds(log_file) -> float:
    """Wall time of a fresh process that only imports the CLI."""
    code, seconds, _ = run_child(["-c", "import robustqda.cli"], child_env(NPROC), log_file)
    if code != 0:
        raise SetupError(f"'import robustqda.cli' exited with {code}")
    return seconds


def child_pass(commands: list, threads: int, ledger: Ledger, log_file) -> tuple:
    """Run the command sequence once in fresh children; returns the
    sequence wall time, the largest child RSS and the output hashes."""
    env = child_env(threads)
    start = time.perf_counter()
    peak = 0.0
    for cmd in commands:
        code, _, rss = run_child(["-m", "robustqda.cli", *cmd.argv], env, log_file)
        ledger.record(code == 0, f"{cmd.name} exited with {code} at {threads} threads")
        peak = max(peak, rss)
    wall = time.perf_counter() - start
    return wall, peak, [digest(cmd.outputs) for cmd in commands]


def timed_passes(run_pass, seconds: float) -> None:
    """Repeat ``run_pass`` while the next pass is expected to end within
    ``seconds``, and at least ``MIN_PASSES`` times unless that takes longer
    than ``MAX_LOOP_S``."""
    start = time.perf_counter()
    took: list = []
    while True:
        elapsed = time.perf_counter() - start
        expected_end = elapsed + (statistics.median(took) if took else 0.0)
        if expected_end > seconds and (len(took) >= MIN_PASSES or elapsed >= MAX_LOOP_S):
            return
        run_pass()
        took.append(time.perf_counter() - start - elapsed)


def run_untraced(workload, seconds: float, ledger: Ledger, log_file) -> dict:
    commands = workload.commands()
    _, _, ref1 = child_pass(commands, 1, ledger, log_file)
    walls, peaks, hashes = [], [], []
    # Set-up samples are spread over the first passes, so that one slow
    # stretch of the machine does not set them all.
    setup = [import_seconds(log_file)]

    def one_pass():
        wall, peak, h = child_pass(commands, NPROC, ledger, log_file)
        walls.append(wall)
        peaks.append(peak)
        hashes.append(h)
        if len(setup) < SETUP_IMPORTS:
            setup.append(import_seconds(log_file))

    timed_passes(one_pass, seconds)
    for i, h in enumerate(hashes[1:], start=2):
        compare(ledger, commands, h, hashes[0], f"pass {i}")
    compare(ledger, commands, ref1, hashes[0], "ROBUST_QDA_THREADS=1 pass")
    return {"setup_s": setup, "wall_s": walls, "peak_rss_mb": peaks, "hashes": hashes[0]}


def run_traced(workload, seconds: float, ledger: Ledger, log_file) -> dict:
    commands = workload.commands()
    _, _, ref1 = child_pass(commands, 1, ledger, log_file)
    sys.path.insert(0, str(SRC))
    import robustqda.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: imported robustqda from {cli.__file__}, not from {SRC}")

    def in_process(tracer=None) -> list:
        for cmd in commands:
            main = tracer.wrap(f"cli.{cmd.name}", cli.main) if tracer else cli.main
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    code = main(list(cmd.argv))
                except Exception:  # a crash of the program under test is a failed run
                    code = "an exception"
                    traceback.print_exc()
            log_file.write(sink.getvalue().encode())
            ledger.record(code == 0, f"in-process {cmd.name} exited with {code}")
        return [digest(cmd.outputs) for cmd in commands]

    warm = in_process()
    untraced, traced, layers, missing, first_spans = [], [], [], set(), []

    def one_pass():
        start = time.perf_counter()
        compare(ledger, commands, in_process(), warm, "untraced in-process pass")
        untraced.append(time.perf_counter() - start)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            start = time.perf_counter()
            hashes = in_process(tracer)
            traced.append(time.perf_counter() - start)
        finally:
            tracer.uninstall()
        compare(ledger, commands, hashes, warm, "traced pass")
        missing.update(tracer.missing)
        spans = tracer.take()
        layers.append(tracing.layer_metrics(spans, tracer.missing))
        if not first_spans:
            first_spans.extend(spans)

    timed_passes(one_pass, seconds)
    compare(ledger, commands, ref1, warm, "ROBUST_QDA_THREADS=1 pass")
    for i, metrics in enumerate(layers[1:], start=2):
        for name in tracing.COUNTS:
            if metrics.get(name) != layers[0].get(name):
                ledger.problems.append(f"traced pass {i}: {name} changed between passes")
                ledger.failed += 1
    per_layer = {}
    for name in tracing.PER_LAYER:
        values = [m[name] for m in layers if name in m]
        if values:
            per_layer[name] = statistics.median(values)
    per_layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    for name in sorted(set(tracing.PER_LAYER) - set(per_layer)):
        log(f"missing per-layer metric: {name}")
    own = tracing.self_times(first_spans)
    return {
        "per_layer": per_layer,
        "missing": sorted(missing),
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "hashes": warm,
        "spans": [{**vars(s), "self_s": own[s.sid]} for s in first_spans],
    }


def main(argv=None) -> int:
    # BLAS reads its thread variables when numpy loads, so they are set
    # before the modules that import numpy.
    os.environ.update(THREAD_ENV)
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "robustqda" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'robustqda'}", file=sys.stderr)
        return 2
    work = RUN_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results = RUN_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)

    workload = WORKLOADS[args.workload](work, args.seed, args.tiny)
    ledger = Ledger()
    with open(work / "children.log", "wb") as log_file:
        def run_setup(cmd):
            code, _, _ = run_child(["-m", "robustqda.cli", *cmd.argv], child_env(NPROC), log_file)
            if code != 0:
                raise SetupError(f"set-up command {cmd.name} exited with {code}")

        try:
            inputs = workload.prepare(run_setup)
            if args.trace:
                record = run_traced(workload, args.seconds, ledger, log_file)
            else:
                record = run_untraced(workload, args.seconds, ledger, log_file)
        except SetupError as exc:
            print(f"error: {exc}; see {work / 'children.log'}", file=sys.stderr)
            return 1

    problems, quality = workload.check()
    if problems:
        ledger.problems += problems
        ledger.failed = ledger.attempted
    if args.trace:
        metrics = record["per_layer"]
        units = tracing.PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(record["setup_s"]),
            "wall_s": statistics.median(record["wall_s"]),
            "peak_rss_mb": max(record["peak_rss_mb"]),
            **{k: v for k, v in (quality or {}).items() if k in END_TO_END},
        }
        units = END_TO_END
    summary = {
        "correct": ledger.failed == 0 and quality is not None,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    full = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "environment": environment(inputs),
        "problems": ledger.problems,
        "quality": quality,
        "error_rate": ledger.failed / ledger.attempted,
        "summary": summary,
        **record,
    }
    stem = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(full, indent=1, default=str) + "\n")
    for problem in ledger.problems:
        log(f"problem: {problem}")
    shown = dict(summary["metrics"])
    if not args.trace:
        shown["error_rate"] = {"value": ledger.failed / ledger.attempted, "unit": "ratio"}
        if quality:
            shown["kl_max"] = {"value": quality["kl_max"], "unit": "nats"}
    for name, metric in shown.items():
        log(f"{name:34s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

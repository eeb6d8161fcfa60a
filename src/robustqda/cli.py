"""Command-line interface.

Five subcommands: ``mcd`` (standalone estimator), ``train``, ``predict``,
``lbplot`` (the label-bias diagnostic), and ``simulate`` (the
contamination study).  Every output file is written atomically, carries
no timestamps or timings, and depends only on the flags and seed, so a
rerun with the same arguments is byte-identical.  Timings go to stderr.

Exit codes: 0 success, 2 input or validation problem, 3 numeric failure,
4 I/O failure, 5 a worker process died.
"""
from __future__ import annotations

import argparse
import gc
import io
import os
import sys
import time
from dataclasses import replace

# A command's parallelism comes from its own forked workers, and BLAS
# threads started in every worker would oversubscribe the cores, so BLAS
# runs on one thread unless the user has set its thread count.  BLAS
# reads these once, when numpy loads it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

import numpy as np

from . import block_mcd, lbplot, sim
from ._threads import process_map, worker_count
from .data_io import encode_for_model, encode_labels, read_dataset, read_rows, write_predictions_csv
from .errors import ConfigError, DataError, DimensionMismatch, NumericError, WorkerDied
from .fileio import read_text, write_text_atomic
from .model_io import load_model, save_model
from .presets import preset_names
from .qda import OUTLIER_LABEL, classify_rows, fit_qda

__all__ = ["build_parser", "main", "run"]

# Fewest rows a ``predict`` worker process is given: a file of n rows is
# cut into min(cap, n // MIN_ROWS_PER_WORKER) ranges, so below twice this
# it is scored in-process.  On 2 cores two workers lost to one at 100k
# rows and won from 150k up (``BENCH_predict_workers.json``; re-measured
# by ``tools/workers_crossover.py``): below that, starting the workers and
# sending their text back cost more than half the parse and format.
MIN_ROWS_PER_WORKER = 75_000


def _blocks_arg(value: str):
    if value == "auto":
        return "auto"
    try:
        q = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer or 'auto', got {value!r}")
    if q < 1:
        raise argparse.ArgumentTypeError(f"block count must be positive, got {q}")
    return q


_H_FRAC_HELP = "subset fraction in [0.5, 1) (default 0.5)"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robust-qda",
        description="Robust quadratic discriminant analysis with a block-parallel MCD estimator.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p_mcd = sub.add_parser("mcd", help="fit the blockwise MCD location/scatter estimate on a CSV")
    p_mcd.add_argument("--data", required=True, help="input CSV (all columns are features)")
    p_mcd.add_argument("--h-frac", type=float, default=0.5, metavar="F", help=_H_FRAC_HELP)
    p_mcd.add_argument("--blocks", type=_blocks_arg, default="auto", metavar="Q",
                       help="block count, or 'auto' to size blocks from the data (default)")
    p_mcd.add_argument("--seed", type=int, default=0, help="shuffle seed (default 0)")
    p_mcd.add_argument("--out", default=None, help="write the report here instead of stdout")
    p_mcd.set_defaults(func=cmd_mcd)

    p_train = sub.add_parser("train", help="fit a QDA model and save it")
    p_train.add_argument("--data", required=True, help="training CSV")
    p_train.add_argument("--label-col", required=True, help="name of the label column")
    p_train.add_argument("--mode", choices=("robust", "classical"), default="robust")
    p_train.add_argument("--h-frac", type=float, default=0.5, metavar="F", help=_H_FRAC_HELP)
    p_train.add_argument("--blocks", type=_blocks_arg, default="auto", metavar="Q")
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--out", required=True, help="model file to write")
    p_train.set_defaults(func=cmd_train)

    p_pred = sub.add_parser("predict", help="classify a CSV with a saved model")
    p_pred.add_argument("--model", required=True, help="model file from 'train'")
    p_pred.add_argument("--data", required=True, help="CSV of feature columns only")
    p_pred.add_argument("--out", required=True, help="predictions CSV to write")
    p_pred.set_defaults(func=cmd_predict)

    p_lb = sub.add_parser("lbplot", help="label-bias diagnostic for one class")
    p_lb.add_argument("--model", required=True)
    p_lb.add_argument("--data", required=True, help="CSV with features and the label column")
    p_lb.add_argument("--label-col", required=True)
    p_lb.add_argument("--class", dest="given_class", required=True, metavar="G",
                      help="class whose given-label rows to plot (number or trained name)")
    p_lb.add_argument("--csv", required=True, help="point table to write")
    p_lb.add_argument("--svg", default=None, help="also render the plot here")
    p_lb.set_defaults(func=cmd_lbplot)

    p_sim = sub.add_parser("simulate", help="run a contamination study")
    p_sim.add_argument("--scenario", required=True,
                       help=f"scenario file, or one of the presets: {', '.join(preset_names())}")
    p_sim.add_argument("--scale", type=float, default=None,
                       help="class-size multiplier for presets (default 0.01)")
    p_sim.add_argument("--reps", type=int, default=5, help="replications (default 5)")
    p_sim.add_argument("--methods", choices=("both", "robust", "classical"), default="both")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed (presets default to 0)")
    p_sim.add_argument("--out", required=True, help="directory for the report files")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def _fmt(x: float) -> str:
    return repr(float(x))


def _mcd_report(result, names, h_frac, blocks_flag, seed) -> str:
    est = result.estimate
    diag = result.diagnostics
    raw = result.raw
    p = est.p
    lines = [
        "blockwise mcd estimate",
        f"rows = {result.weights.shape[0]}",
        f"features = {','.join(names)}",
        f"h_frac = {_fmt(h_frac)}",
        f"blocks_requested = {blocks_flag}",
        f"blocks_used = {diag.q}",
        f"seed = {seed}",
        "location = " + " ".join(_fmt(v) for v in est.mu),
    ]
    for j in range(p):
        lines.append(f"scatter_row_{j + 1} = " + " ".join(_fmt(v) for v in est.sigma[j]))
    lines += [
        f"det = {_fmt(float(np.exp(est.log_det)))}",
        f"inliers = {int(result.weights.sum())} of {result.weights.shape[0]}",
        "block_sizes = " + " ".join(str(v) for v in diag.block_sizes),
        "block_h = " + " ".join(str(v) for v in diag.h_values),
        "block_det = " + " ".join(_fmt(v) for v in diag.block_dets),
        "block_kl = " + " ".join(_fmt(v) for v in raw.kl_deviations),
        "selected_blocks = " + " ".join(str(v) for v in raw.contributing_blocks),
        f"pooled_h = {raw.h}",
    ]
    return "\n".join(lines) + "\n"


def cmd_mcd(args) -> int:
    dataset = read_dataset(args.data)
    start = time.perf_counter()
    result = block_mcd.blockwise_mcd(
        dataset.X, h_frac=args.h_frac, blocks=args.blocks, rng=args.seed
    )
    elapsed = time.perf_counter() - start
    report = _mcd_report(result, dataset.feature_names, args.h_frac, args.blocks, args.seed)
    if args.out is None:
        sys.stdout.write(report)
    else:
        write_text_atomic(args.out, report)
        print(f"wrote {args.out}", file=sys.stderr)
    print(f"fit took {elapsed:.3f}s", file=sys.stderr)
    return 0


def cmd_train(args) -> int:
    dataset = read_dataset(args.data, label_col=args.label_col)
    y, label_names = encode_labels(dataset.labels_raw)
    start = time.perf_counter()
    model = fit_qda(
        dataset.X,
        y,
        mode=args.mode,
        h_frac=args.h_frac,
        blocks=args.blocks,
        seed=args.seed,
    )
    elapsed = time.perf_counter() - start
    save_model(args.out, model, label_names)
    for g, cm in enumerate(model.classes, start=1):
        shown = label_names[g - 1] if label_names else g
        print(
            f"class {shown}: n={cm.n_raw} inliers={cm.n_inlier} prior={cm.prior:.4f}",
            file=sys.stderr,
        )
    print(f"wrote {args.out} ({args.mode} fit took {elapsed:.3f}s)", file=sys.stderr)
    return 0


def cmd_predict(args) -> int:
    model, label_names = load_model(args.model)
    rows = read_rows(args.data)
    if len(rows.feature_idx) != model.p:
        raise DimensionMismatch(f"X has {len(rows.feature_idx)} columns, model expects {model.p}")
    cap = worker_count()
    parts = rows.split(1 if cap == 1 else min(cap, rows.line_count // MIN_ROWS_PER_WORKER))

    def predict_range(part):
        X, _ = rows.parse(part)
        labels, scores, _, min_rd = classify_rows(model, X)
        text = io.StringIO()
        write_predictions_csv(text, labels, scores, min_rd, label_names, first_row=part.first_row)
        return text.getvalue(), labels.shape[0], int(np.count_nonzero(labels == OUTLIER_LABEL))

    start = time.perf_counter()
    results = process_map(predict_range, parts)
    elapsed = time.perf_counter() - start
    write_text_atomic(args.out, "".join(text for text, _, _ in results))
    n = sum(count for _, count, _ in results)
    outliers = sum(count for _, _, count in results)
    print(
        f"wrote {args.out}: {n} rows, {outliers} outliers (parsing, scoring and "
        f"formatting {len(parts)} row range{'s' if len(parts) > 1 else ''} took {elapsed:.3f}s)",
        file=sys.stderr,
    )
    return 0


def _resolve_class(value: str, label_names, n_classes: int) -> int:
    if label_names is not None and value in label_names:
        return label_names.index(value) + 1
    try:
        return int(value)
    except ValueError:
        if label_names is not None:
            raise DataError(
                f"unknown class {value!r}; trained classes are {', '.join(label_names)}"
            ) from None
        raise DataError(f"unknown class {value!r}; expected a number in 1..{n_classes}") from None


def cmd_lbplot(args) -> int:
    model, label_names = load_model(args.model)
    dataset = read_dataset(args.data, label_col=args.label_col)
    y = encode_for_model(dataset.labels_raw, label_names, model.n_classes)
    g = _resolve_class(args.given_class, label_names, model.n_classes)
    spec = lbplot.lb_points(model, dataset.X, y, g)
    if not spec.row.size:
        shown = label_names[g - 1] if label_names else g
        raise DataError(f"class {shown} has no rows in {args.data}")
    lbplot.write_lb_csv(spec, args.csv)
    written = [args.csv]
    if args.svg is not None:
        write_text_atomic(args.svg, lbplot.render_lb_svg(spec))
        written.append(args.svg)
    print(f"wrote {', '.join(written)} ({spec.row.size} points)", file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    if args.scenario in preset_names():
        scenario = sim.preset_scenario(args.scenario, scale=0.01 if args.scale is None else args.scale)
    elif args.scale is not None:
        raise ConfigError("--scale sizes a preset's classes; a scenario file gives its own sizes")
    else:
        scenario = sim.parse_scenario(read_text(args.scenario, "scenario file"))
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    methods = ("robust", "classical") if args.methods == "both" else (args.methods,)
    start = time.perf_counter()
    study = sim.run_study(scenario, reps=args.reps, methods=methods)
    elapsed = time.perf_counter() - start
    written = sim.write_study_report(study, args.out)
    for report in study.methods:
        total = sum(report.seconds)
        print(f"{report.mode}: {study.reps} reps, fit time summed over reps {total:.3f}s",
              file=sys.stderr)
    print(f"study wall time {elapsed:.3f}s", file=sys.stderr)
    for path in written:
        print(f"wrote {path}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except WorkerDied as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


def run() -> None:
    """Entry point of the ``robust-qda`` script and of ``python -m
    robustqda.cli``: run :func:`main` on ``sys.argv`` and exit with its
    code.

    ``gc.freeze()`` first moves every object to the collector's permanent
    generation, so that the interpreter's shutdown collection does not
    walk them all again; ``atexit`` handlers still run and buffered
    output is still flushed.  :func:`main` itself leaves the collector as
    it is, since tests and the benchmark call it in-process.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()

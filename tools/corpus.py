"""Byte corpus of the command-line interface: write it, or compare two.

    PYTHONPATH=src python3 tools/corpus.py write DIR
    ENV/bin/python tools/corpus.py write DIR
    python3 tools/corpus.py compare A B

``write`` draws its inputs into ``DIR/in`` with numpy (the label-noise
sets with the benchmark's own ``bench.inputs``, the two-class demo with
``sim.two_class_demo``, the quoted-name set with Python's ``csv``
module, so that every tree reads the same bytes), then runs every
command of :func:`_commands` in a fresh ``python -m robustqda.cli``
process, in order, with ``DIR`` as the working directory and under
the environment it is given: the package is the one this script
imports (``PYTHONPATH`` picks a tree's ``src``; without it, an
environment's Python runs the package installed there), and
``ROBUST_QDA_THREADS`` sets the cap.  A command that
must fail has its exit code and stderr written to a file; any other
command that fails stops the run.  :func:`check` then tests the
corpus's own invariants, and ``write`` exits 1 naming each file that
breaks one:
- ``mcd/ties_7.txt`` and ``mcd/ties_shuffled_7.txt`` are the same bytes,
  since the fit must not depend on row order;
- ``mcd/class_cr_auto.txt``, ``mcd/class_crlf_auto.txt``,
  ``mcd/class_bom_auto.txt`` and ``mcd/class_quoted_header_auto.txt``
  are the bytes of ``mcd/class_auto.txt``, and
  ``model/quoted_cr_robust.json`` those of ``model/quoted_robust.json``,
  since CR and CRLF line ends read as LF ones, a leading byte-order
  mark is not part of the text, and a quoted header cell reads as the
  name it quotes;
- ``simulate/both_from_file`` holds the bytes of ``simulate/both``,
  since a study read back from its own ``scenario.txt`` is the study;
- ``predict/two_auto_1.csv`` is the first two lines of
  ``predict/two_auto_160k.csv``, since a one-row input scores as the
  first row of a larger one;
- ``mcd/class_20800_auto.txt`` holds the line
  ``block_sizes = 5200 5200 5200 5200``, since ``--blocks auto`` takes
  one block per full 5000 rows;
- ``mcd/ties_7.txt`` holds the line
  ``block_sizes = 1430 1430 1430 1430 1429 1429 1429``, since
  ``--blocks 7`` splits 10,007 rows as evenly as it can.

``DIR/SHA256SUMS`` then lists every file in ``sha256sum`` format.  The
outputs carry no timings, so two runs of the same tree give the same
bytes at any cap.

``compare`` hashes every file under ``A`` and ``B``, lists each one that
differs or exists on one side only, prints a summary line, and exits 1
if any file does not match.

The commands are the corpus that "same bytes" claims in ``CHANGES.md``
were checked on:
- ``mcd`` at ``--blocks`` auto, 1 and 4, and 4 with ``--h-frac 0.75
  --seed 9``, on a 10,400-row class; at auto on its CR, CRLF,
  byte-order-marked and quoted-header copies; at auto on a 20,800-row
  class (four 5200-row blocks, two stacks on forked workers); at 7 on
  10,007 tied half-integer rows, on a row-shuffled copy and with
  ``--h-frac 0.75 --seed 3``; at 4 on 4000 rows whose first two
  columns differ by 1e-6 noise, where concentration steps meet
  rounding;
- ``train`` at auto, 1, 4 and classical on two 10,400-row classes, at
  auto on two 20,800-row classes, robust and classical on named
  three-class quarter-step data with a duplicated far row, on the
  two-class demo and on three classes whose names are quoted cells
  holding a comma and a doubled quote, robust and classical, and robust
  on that set's CR copy;
- ``predict`` on 160,000 rows and on the first of them alone, on the
  named set and on the quoted-name set;
- ``lbplot --csv --svg`` for every class of the first nine models, and
  for class 1 of the quoted-name ones (by number, since a command is
  split on whitespace);
- the ``fit-diagnose`` inputs (``bench.inputs.label_preset`` at scale
  0.01, generator seeds 1 and 7, two sets each): ``train --blocks auto``
  and ``lbplot`` of classes 1 to 3;
- ``simulate`` of all four presets at ``--reps 3``, of the ``both``
  study's own ``scenario.txt`` at ``--reps 3``, ``measurement
  --methods robust --reps 2 --seed 4``, and ``both --scale 0.06 --reps
  1``, whose one replication has the whole cap, so that its classes 2
  and 3 (5212- and 5850-row blocks) fit their stacks on forked workers
  at caps 2 and 3, and, at ``--reps 2``, of a scenario file holding the
  ``both`` preset with no label noise and ``eps_meas = 0.0003``, whose
  class 1 gets no planted noise;
- the stderr of the oversized-cell error, of ``lbplot --class 3`` on
  a two-class model, and of ``lbplot`` of that model on the demo's class-2
  rows followed by rows labeled 3 and 0, classes it was not trained on.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = "SHA256SUMS"

# Byte copies of an LF input that must read as the input itself.
_BYTE_COPIES = {
    "cr": lambda lf: lf.replace(b"\n", b"\r"),
    "crlf": lambda lf: lf.replace(b"\n", b"\r\n"),
    "bom": lambda lf: b"\xef\xbb\xbf" + lf,
    "quoted_header": lambda lf: b",".join(b'"%s"' % name for name in lf[:lf.index(b"\n")].split(b","))
                                + lf[lf.index(b"\n"):],
}

# The files of one study report.
_STUDY_FILES = ("scenario.txt", "confusion_robust.csv", "metrics_robust.csv", "confusion_classical.csv",
                "metrics_classical.csv", "report.txt")

# Pairs of outputs that must be the same bytes.
_SAME = (
    ("mcd/ties_7.txt", "mcd/ties_shuffled_7.txt"),
    *(("mcd/class_auto.txt", f"mcd/class_{copy}_auto.txt") for copy in _BYTE_COPIES),
    ("model/quoted_robust.json", "model/quoted_cr_robust.json"),
    *((f"simulate/both/{name}", f"simulate/both_from_file/{name}") for name in _STUDY_FILES),
)


def _models():
    """(model, training data, ``train`` flags, class names) of every
    trained model."""
    two = [("two_auto", "two", "--blocks auto"), ("two_1", "two", "--blocks 1"),
           ("two_4", "two", "--blocks 4"), ("two_classical", "two", "--mode classical"),
           ("two_20800_auto", "two_20800", "--blocks auto"), ("demo_robust", "demo", ""),
           ("demo_classical", "demo", "--mode classical")]
    named = ("alpha", "beta", "gamma")
    return [(*model, ("1", "2")) for model in two] + [
        ("named_robust", "named", "", named), ("named_classical", "named", "--mode classical", named),
        ("quoted_robust", "quoted", "", ("1",)), ("quoted_classical", "quoted", "--mode classical", ("1",)),
    ]


def _commands() -> list:
    """The corpus as ``(argv, stderr file)`` pairs: the stderr file is
    None for a command that must succeed, and for one that must fail it
    names the file that gets its exit code and stderr."""
    runs = []
    for flags, tag in (("--blocks auto", "auto"), ("--blocks 1", "1"), ("--blocks 4", "4"),
                       ("--blocks 4 --h-frac 0.75 --seed 9", "4_h75_s9")):
        runs.append(f"mcd --data in/class.csv {flags} --out mcd/class_{tag}.txt")
    for copy in _BYTE_COPIES:
        runs.append(f"mcd --data in/class_{copy}.csv --blocks auto --out mcd/class_{copy}_auto.txt")
    runs.append("mcd --data in/class_20800.csv --blocks auto --out mcd/class_20800_auto.txt")
    runs += [
        "mcd --data in/ties.csv --blocks 7 --out mcd/ties_7.txt",
        "mcd --data in/ties_shuffled.csv --blocks 7 --out mcd/ties_shuffled_7.txt",
        "mcd --data in/ties.csv --blocks 7 --h-frac 0.75 --seed 3 --out mcd/ties_7_h75_s3.txt",
        "mcd --data in/collinear.csv --blocks 4 --out mcd/collinear_4.txt",
    ]
    for name, data, flags, _ in _models():
        runs.append(f"train --data in/{data}.csv --label-col label {flags} --out model/{name}.json")
    runs.append("train --data in/quoted_cr.csv --label-col label --out model/quoted_cr_robust.json")
    runs += [
        "predict --model model/two_auto.json --data in/features_160k.csv --out predict/two_auto_160k.csv",
        "predict --model model/two_auto.json --data in/features_1.csv --out predict/two_auto_1.csv",
        "predict --model model/named_robust.json --data in/named_features.csv --out predict/named_robust.csv",
        "predict --model model/named_classical.json --data in/named_features.csv"
        " --out predict/named_classical.csv",
        "predict --model model/quoted_robust.json --data in/quoted_features.csv"
        " --out predict/quoted_robust.csv",
        "predict --model model/quoted_classical.json --data in/quoted_features.csv"
        " --out predict/quoted_classical.csv",
    ]
    for name, data, _, classes in _models():
        for g in classes:
            runs.append(f"lbplot --model model/{name}.json --data in/{data}.csv --label-col label --class {g}"
                        f" --csv lbplot/{name}_{g}.csv --svg lbplot/{name}_{g}.svg")
    for seed in (1, 7):
        for part in "ab":
            name = f"label_{seed}{part}"
            runs.append(f"train --data in/{name}.csv --label-col label --blocks auto --out model/{name}.json")
            for g in (1, 2, 3):
                runs.append(f"lbplot --model model/{name}.json --data in/{name}.csv --label-col label"
                            f" --class {g} --csv lbplot/{name}_{g}.csv --svg lbplot/{name}_{g}.svg")
    for preset in ("both", "clean", "label", "measurement"):
        runs.append(f"simulate --scenario {preset} --reps 3 --out simulate/{preset}")
    runs.append("simulate --scenario simulate/both/scenario.txt --reps 3 --out simulate/both_from_file")
    runs.append("simulate --scenario measurement --methods robust --reps 2 --seed 4"
                " --out simulate/measurement_robust_s4")
    runs.append("simulate --scenario both --scale 0.06 --reps 1 --out simulate/both_scale_0.06")
    runs.append("simulate --scenario in/one_clean_class.txt --reps 2 --out simulate/one_clean_class")
    commands = [(run.split(), None) for run in runs]
    commands += [
        ("mcd --data in/huge_cell.csv".split(), "stderr/mcd_huge_cell.txt"),
        ("lbplot --model model/two_auto.json --data in/two.csv --label-col label --class 3"
         " --csv lbplot/two_auto_3.csv".split(), "stderr/lbplot_two_auto_class_3.txt"),
        ("lbplot --model model/demo_robust.json --data in/demo_untrained_labels.csv --label-col label"
         " --class 2 --csv lbplot/demo_untrained_labels.csv".split(), "stderr/lbplot_demo_untrained_labels.txt"),
    ]
    return commands


def _write_inputs(folder: Path) -> None:
    from dataclasses import replace

    from robustqda.sim import format_scenario, preset_scenario, two_class_demo

    sys.path.insert(0, str(ROOT))
    from bench.inputs import label_preset, write_csv

    folder.mkdir(parents=True)
    rng = np.random.default_rng(2024)

    def two_classes(n):
        y = np.repeat([1, 2], n)
        X = rng.standard_normal((2 * n, 3)) + 4.0 * (y[:, None] == 2)
        X[::50] += 12.0
        return X, y

    X, y = two_classes(10_400)
    write_csv(folder / "two.csv", X, y)
    write_csv(folder / "class.csv", X[y == 1])
    lf = (folder / "class.csv").read_bytes()
    for copy, data in _BYTE_COPIES.items():
        (folder / f"class_{copy}.csv").write_bytes(data(lf))
    X, y = two_classes(20_800)
    write_csv(folder / "two_20800.csv", X, y)
    write_csv(folder / "class_20800.csv", X[y == 1])
    write_csv(folder / "features_160k.csv",
              rng.standard_normal((160_000, 3)) + 4.0 * rng.integers(0, 2, (160_000, 1)))
    with open(folder / "features_160k.csv", "rb") as fh:
        (folder / "features_1.csv").write_bytes(fh.readline() + fh.readline())

    ties = np.round(rng.standard_normal((10_007, 3)) * 2.0) / 2.0
    ties[::9] += 6.0
    write_csv(folder / "ties.csv", ties)
    write_csv(folder / "ties_shuffled.csv", ties[rng.permutation(len(ties))])

    names = np.repeat(["alpha", "beta", "gamma"], [300, 260, 220])
    centers = {"alpha": (0.0, 0.0), "beta": (5.0, 1.0), "gamma": (1.0, 6.0)}
    X = np.round(rng.standard_normal((names.size, 2)) * 4.0) / 4.0
    X += np.array([centers[name] for name in names])
    X[[7, 8]] = (40.0, -40.0)  # a far row and its duplicate
    write_csv(folder / "named.csv", X, names)
    write_csv(folder / "named_features.csv", X)

    centers = {"north, east": (0.0, 0.0), 'say "when"': (6.0, 0.0), "west": (0.0, 6.0)}
    names = np.repeat(list(centers), [240, 200, 180])
    X = rng.standard_normal((names.size, 2)) + np.array([centers[name] for name in names])
    X[::40] += 15.0
    with open(folder / "quoted.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([("x1", "x2", "label"), *zip(*X.T.tolist(), names)])
    (folder / "quoted_cr.csv").write_bytes(_BYTE_COPIES["cr"]((folder / "quoted.csv").read_bytes()))
    write_csv(folder / "quoted_features.csv", X)

    X, y, _ = two_class_demo()
    write_csv(folder / "demo.csv", X, y)
    write_csv(folder / "demo_untrained_labels.csv", np.vstack([X[y == 2], X[:2]]),
              np.concatenate([y[y == 2], [3, 0]]))
    for seed in (1, 7):
        stream = np.random.default_rng(seed)
        for part in "ab":
            data = label_preset(0.01, stream)
            write_csv(folder / f"label_{seed}{part}.csv", data.X, data.given)

    (folder / "huge_cell.csv").write_text('a,b\n"' + "1" * 200_000 + '",2.0\n')

    rng = np.random.default_rng(2025)
    x = rng.standard_normal(4000)
    collinear = np.column_stack([x, x + 1e-6 * rng.standard_normal(4000), rng.standard_normal(4000)])
    collinear[:300] += 5.0
    write_csv(folder / "collinear.csv", collinear)
    # floor(0.0003 * 2500) = 0 replaced rows in class 1, one in classes 2 and 3.
    one_clean = replace(preset_scenario("both", scale=0.01), eps_label=0.0, eps_meas=0.0003)
    (folder / "one_clean_class.txt").write_text(format_scenario(one_clean))


def _hashes(folder: Path) -> dict:
    return {
        path.relative_to(folder).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(folder.rglob("*"))
        if path.is_file() and path.relative_to(folder).as_posix() != MANIFEST
    }


def check(folder: Path) -> list:
    """One message for each of the corpus's invariants that ``folder``
    breaks, naming the file; empty if it keeps them all."""
    problems = [f"{a} and {b} differ" for a, b in _SAME
                if (folder / a).read_bytes() != (folder / b).read_bytes()]
    for name, line in (("mcd/class_20800_auto.txt", "block_sizes = 5200 5200 5200 5200"),
                       ("mcd/ties_7.txt", "block_sizes = 1430 1430 1430 1430 1429 1429 1429")):
        if line not in (folder / name).read_text().splitlines():
            problems.append(f"{name} has no line {line!r}")
    with open(folder / "predict/two_auto_160k.csv", "rb") as fh:
        head = fh.readline() + fh.readline()
    if (folder / "predict/two_auto_1.csv").read_bytes() != head:
        problems.append("predict/two_auto_1.csv is not the first two lines of predict/two_auto_160k.csv")
    return problems


def write(folder: Path) -> int:
    import robustqda

    if folder.exists() and any(folder.iterdir()):
        sys.exit(f"{folder} exists and is not empty")
    start = time.perf_counter()
    _write_inputs(folder / "in")
    for sub in ("mcd", "model", "predict", "lbplot", "simulate", "stderr"):
        (folder / sub).mkdir()
    package = Path(robustqda.__file__).resolve().parent
    path = [str(package.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    commands = _commands()
    for argv, stderr_file in commands:
        proc = subprocess.run([sys.executable, "-m", "robustqda.cli", *argv], cwd=folder, env=env,
                              capture_output=True, text=True)
        failed = proc.returncode != 0
        if failed != (stderr_file is not None):
            sys.exit(f"robust-qda {' '.join(argv)}: exit {proc.returncode}\n{proc.stderr}")
        if failed:
            (folder / stderr_file).write_text(f"exit {proc.returncode}\n{proc.stderr}")
    problems = check(folder)
    if problems:
        sys.exit("\n".join(problems))
    hashes = _hashes(folder)
    (folder / MANIFEST).write_text("".join(f"{digest}  {name}\n" for name, digest in hashes.items()))
    print(f"wrote {len(hashes)} files from {len(commands)} commands of {package} to {folder}"
          f" in {time.perf_counter() - start:.1f}s (ROBUST_QDA_THREADS="
          f"{os.environ.get('ROBUST_QDA_THREADS', 'unset')})")
    return 0


def compare(a: Path, b: Path) -> int:
    for folder in (a, b):
        if not folder.is_dir():
            sys.exit(f"{folder} is not a directory")
    ha, hb = _hashes(a), _hashes(b)
    differ = sorted(name for name in ha.keys() & hb.keys() if ha[name] != hb[name])
    only_a, only_b = sorted(ha.keys() - hb.keys()), sorted(hb.keys() - ha.keys())
    for label, names in (("differs", differ), (f"only in {a}", only_a), (f"only in {b}", only_b)):
        for name in names:
            print(f"{label}: {name}")
    same = len(ha.keys() & hb.keys()) - len(differ)
    print(f"{same} identical, {len(differ)} differ, {len(only_a)} only in {a}, {len(only_b)} only in {b}")
    return 1 if differ or only_a or only_b else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("write", help="write the corpus and its manifest into DIR").add_argument("dir", type=Path)
    p_compare = sub.add_parser("compare", help="list the files that differ between two corpora")
    p_compare.add_argument("a", type=Path)
    p_compare.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    return write(args.dir) if args.command == "write" else compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())

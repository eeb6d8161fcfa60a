"""The benchmark's workloads: their inputs, CLI commands and output checks.

Every workload uses the 5-D, 3-class preset geometry.  ``fit-diagnose``
and ``score-bulk`` read CSVs drawn and written by ``inputs``;
``study-contaminated`` lets the package's own ``sim`` module draw its data
in memory, by design.  Each ``check`` validates the output files against
the generator's truth with numpy alone and returns the quality metrics.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from inputs import (
    KIND_CLEAN,
    P,
    PRESET_CONTAMINATION,
    PRESET_EPS,
    PRESET_MU,
    PRESET_SIGMA_DIAG,
    class_sizes,
    gaussian_kl,
    label_preset,
    true_sigmas,
    write_csv,
)

G = len(PRESET_MU)
# chi2.ppf(0.99, 5): the squared outlier cutoff of a model trained with
# the default outlier quantile.
CHI2_99_P5 = 15.08627246938899
LB_CUTOFF = math.sqrt(math.log(2.0))
# Fixed sub-streams of the run seed, one per generated data set.
TRAIN_STREAM = 1
SCORE_STREAM = 2

# Sanity gates on the estimator's quality.  A run whose outputs miss one
# of them counts every command as failed.
KL_GATE = 1.0
ACCURACY_GATE = 0.9
FLAG_GATE = 0.5


@dataclass
class Command:
    name: str
    argv: list
    outputs: list = field(default_factory=list)


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


def _train_command(data: Path, model: Path, seed: int) -> Command:
    argv = ["train", "--data", str(data), "--label-col", "label", "--mode", "robust",
            "--blocks", "auto", "--seed", str(seed), "--out", str(model)]
    return Command("train", argv, [model])


def _read_model(path: Path, given: np.ndarray, problems: list) -> dict | None:
    """Parse and validate a robust model file trained on labels ``given``."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        classes = doc["classes"]
        model = {
            "mu": [np.array(c["mu"], dtype=np.float64) for c in classes],
            "sigma": [np.array(c["sigma"], dtype=np.float64) for c in classes],
            "prior": np.array([c["prior"] for c in classes], dtype=np.float64),
            "n_raw": [c["n_raw"] for c in classes],
            "labels": [c["label"] for c in classes],
            "cutoff": float(doc["outlier_cutoff"]),
        }
        header = (doc["mode"], doc["p"], doc["G"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"{path.name}: unreadable model ({exc})")
        return None
    if header != ("robust", P, G) or model["labels"] != list(range(1, G + 1)):
        problems.append(f"{path.name}: unexpected header {header} / labels {model['labels']}")
        return None
    counts = [int(np.count_nonzero(given == g)) for g in range(1, G + 1)]
    if model["n_raw"] != counts:
        problems.append(f"{path.name}: class sizes {model['n_raw']}, expected {counts}")
    if abs(model["prior"].sum() - 1.0) > 1e-9 or np.any(model["prior"] <= 0):
        problems.append(f"{path.name}: priors {model['prior'].tolist()} are not a distribution")
    if abs(model["cutoff"] ** 2 - CHI2_99_P5) > 1e-9:
        problems.append(f"{path.name}: outlier cutoff {model['cutoff']!r} is not sqrt(chi2_5(0.99))")
    for g, sigma in enumerate(model["sigma"], start=1):
        if sigma.shape != (P, P) or not np.array_equal(sigma, sigma.T):
            problems.append(f"{path.name}: class {g} scatter is not a symmetric {P}x{P} matrix")
            return None
        try:
            np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError:
            problems.append(f"{path.name}: class {g} scatter is not positive definite")
            return None
    return model


def _squared_distances(model: dict, X: np.ndarray) -> np.ndarray:
    """(n, G) squared Mahalanobis distances under each class of ``model``."""
    out = np.empty((X.shape[0], G))
    for g in range(G):
        L = np.linalg.cholesky(model["sigma"][g])
        W = np.linalg.solve(L, (X - model["mu"][g]).T)
        out[:, g] = np.einsum("ij,ij->j", W, W)
    return out


def _kl_max(model: dict) -> float:
    return max(gaussian_kl(s, t) for s, t in zip(model["sigma"], true_sigmas()))


def _close(a: np.ndarray, b: np.ndarray, rtol: float = 1e-6) -> bool:
    return bool(np.all(np.abs(a - b) <= rtol * np.maximum(1.0, np.abs(b))))


def _read_table(path: Path, header: str, problems: list) -> np.ndarray | None:
    try:
        with path.open(encoding="utf-8") as fh:
            first = fh.readline().rstrip("\n")
        if first != header:
            problems.append(f"{path.name}: header {first!r}, expected {header!r}")
            return None
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: unreadable ({exc})")
        return None


def _gate(quality: dict, problems: list) -> None:
    if not quality["kl_max"] <= KL_GATE:
        problems.append(f"kl_max {quality['kl_max']:.4g} above {KL_GATE}")
    if not quality["clean_accuracy"] >= ACCURACY_GATE:
        problems.append(f"clean_accuracy {quality['clean_accuracy']:.4g} below {ACCURACY_GATE}")
    if not quality["noise_flag_rate"] >= FLAG_GATE:
        problems.append(f"noise_flag_rate {quality['noise_flag_rate']:.4g} below {FLAG_GATE}")


class FitDiagnose:
    name = "fit-diagnose"
    # Data sets per pass.  How much work the exchange polish does depends
    # on the data, so each pass fits and diagnoses several independent
    # draws, which keeps the pass time from swinging with the seed.
    SETS = 2

    def __init__(self, work: Path, seed: int, tiny: bool):
        self.seed = seed
        self.scale = 0.002 if tiny else 0.01
        self.work = work

    def _path(self, stem: str, k: int, suffix: str) -> Path:
        return self.work / f"{stem}{k}{suffix}"

    def prepare(self, run_setup) -> dict:
        # Set 0 is drawn from the same stream as score-bulk's training data.
        self.data = [label_preset(self.scale, _rng(self.seed, TRAIN_STREAM, *((k,) if k else ())))
                     for k in range(self.SETS)]
        inputs = {}
        for k, data in enumerate(self.data):
            path = self._path("train", k, ".csv")
            nbytes = write_csv(path, data.X, data.given)
            inputs[path.name] = {"rows": int(data.X.shape[0]), "bytes": nbytes}
        return inputs

    def commands(self) -> list:
        out = []
        for k in range(self.SETS):
            train, model = self._path("train", k, ".csv"), self._path("model", k, ".json")
            lb_csv, lb_svg = self._path("lb", k, ".csv"), self._path("lb", k, ".svg")
            lbplot = ["lbplot", "--model", str(model), "--data", str(train),
                      "--label-col", "label", "--class", "2",
                      "--csv", str(lb_csv), "--svg", str(lb_svg)]
            out += [_train_command(train, model, self.seed),
                    Command("lbplot", lbplot, [lb_csv, lb_svg])]
        return out

    def _check_set(self, k: int, problems: list) -> dict | None:
        """Check data set ``k``'s outputs; returns its kl_max and its
        clean-hit and flagged-noise tallies."""
        data = self.data[k]
        model = _read_model(self._path("model", k, ".json"), data.given, problems)
        lb_csv, lb_svg = self._path("lb", k, ".csv"), self._path("lb", k, ".svg")
        table = _read_table(lb_csv, "row,rd_own,lb,given,predicted,overall_outlier", problems)
        svg = lb_svg.read_text(encoding="utf-8") if lb_svg.exists() else ""
        if "<svg" not in svg[:200] or not svg.endswith("</svg>\n"):
            problems.append(f"{lb_svg.name} is not a complete SVG document")
        if model is None or table is None:
            return None
        rows = np.flatnonzero(data.given == 2)
        if table.shape != (rows.shape[0], 6) or not np.array_equal(table[:, 0], rows):
            problems.append(f"{lb_csv.name} does not list exactly the rows labeled 2, in order")
            return None
        rd_own = np.sqrt(_squared_distances(model, data.X[rows])[:, 1])
        if not np.all(table[:, 3] == 2) or not _close(table[:, 1], rd_own):
            problems.append(f"{lb_csv.name} given labels or robust distances disagree with the model")
        clean = data.origin[rows] == 2
        hit = (table[:, 4] == 2) & (table[:, 5] == 0)
        return {
            "kl_max": _kl_max(model),
            "clean": int(clean.sum()),
            "hits": int(hit[clean].sum()),
            "noise": int((~clean).sum()),
            "flagged": int((table[~clean, 2] > LB_CUTOFF).sum()),
        }

    def check(self) -> tuple:
        problems: list = []
        sets = [self._check_set(k, problems) for k in range(self.SETS)]
        if any(s is None for s in sets):
            return problems, None
        quality = {
            "kl_max": max(s["kl_max"] for s in sets),
            "clean_accuracy": sum(s["hits"] for s in sets) / sum(s["clean"] for s in sets),
            "noise_flag_rate": sum(s["flagged"] for s in sets) / sum(s["noise"] for s in sets),
        }
        _gate(quality, problems)
        return problems, quality


class ScoreBulk:
    name = "score-bulk"

    def __init__(self, work: Path, seed: int, tiny: bool):
        self.seed = seed
        self.train_scale = 0.002 if tiny else 0.01
        self.score_scale = 0.005 if tiny else 0.2
        self.train = work / "train.csv"
        self.model = work / "model.json"
        self.features = work / "features.csv"
        self.pred = work / "pred.csv"

    def prepare(self, run_setup) -> dict:
        self.train_data = label_preset(self.train_scale, _rng(self.seed, TRAIN_STREAM))
        train_bytes = write_csv(self.train, self.train_data.X, self.train_data.given)
        run_setup(_train_command(self.train, self.model, self.seed))
        self.data = label_preset(self.score_scale, _rng(self.seed, SCORE_STREAM))
        nbytes = write_csv(self.features, self.data.X)
        return {
            "train.csv": {"rows": int(self.train_data.X.shape[0]), "bytes": train_bytes},
            "features.csv": {"rows": int(self.data.X.shape[0]), "bytes": nbytes},
        }

    def commands(self) -> list:
        argv = ["predict", "--model", str(self.model), "--data", str(self.features),
                "--out", str(self.pred)]
        return [Command("predict", argv, [self.pred])]

    def check(self) -> tuple:
        problems: list = []
        data = self.data
        model = _read_model(self.model, self.train_data.given, problems)
        header = "row,predicted,min_rd," + ",".join(f"score_{g}" for g in range(1, G + 1))
        table = _read_table(self.pred, header, problems)
        if model is None or table is None:
            return problems, None
        n = data.X.shape[0]
        if table.shape != (n, 3 + G) or not np.array_equal(table[:, 0], np.arange(1, n + 1)):
            problems.append(f"pred.csv should hold rows 1..{n} with {3 + G} columns")
            return problems, None
        d2 = _squared_distances(model, data.X)
        log_dets = np.array([np.linalg.slogdet(s)[1] for s in model["sigma"]])
        scores = -0.5 * log_dets - 0.5 * d2 + np.log(model["prior"])
        min_rd = np.sqrt(d2.min(axis=1))
        if not _close(table[:, 2], min_rd) or not _close(table[:, 3:], scores):
            problems.append("pred.csv distances or scores disagree with the model")
        expected = scores.argmax(axis=1) + 1
        expected[min_rd > model["cutoff"]] = 0
        top2 = np.sort(scores, axis=1)[:, -2:]
        tie = (top2[:, 1] - top2[:, 0] <= 1e-9 * np.maximum(1.0, np.abs(top2[:, 1])))
        edge = np.abs(min_rd - model["cutoff"]) <= 1e-9 * model["cutoff"]
        wrong = (table[:, 1] != expected) & ~tie & ~edge
        if wrong.any():
            problems.append(f"pred.csv: {int(wrong.sum())} rows carry the wrong predicted class")
        predicted = table[:, 1]
        clean = data.kind == KIND_CLEAN
        quality = {
            "kl_max": _kl_max(model),
            "clean_accuracy": float((predicted[clean] == data.origin[clean]).mean()),
            # A planted wrong label is caught when the prediction contradicts it.
            "noise_flag_rate": float((predicted[~clean] != data.given[~clean]).mean()),
        }
        _gate(quality, problems)
        return problems, quality


class StudyContaminated:
    name = "study-contaminated"

    def __init__(self, work: Path, seed: int, tiny: bool):
        self.seed = seed
        self.scale = 0.002 if tiny else 0.01
        self.reps = 1 if tiny else 8
        self.out = work / "study"

    def prepare(self, run_setup) -> dict:
        rows = sum(class_sizes(self.scale))
        return {"simulated (in memory)": {"rows": rows * self.reps, "bytes": 0}}

    def commands(self) -> list:
        argv = ["simulate", "--scenario", "both", "--scale", repr(self.scale),
                "--methods", "both", "--reps", str(self.reps), "--seed", str(self.seed),
                "--out", str(self.out)]
        names = ["scenario.txt", "confusion_robust.csv", "metrics_robust.csv",
                 "confusion_classical.csv", "metrics_classical.csv", "report.txt"]
        return [Command("simulate", argv, [self.out / name for name in names])]

    def _check_scenario(self, problems: list) -> None:
        try:
            text = (self.out / "scenario.txt").read_text(encoding="utf-8")
        except OSError as exc:
            problems.append(f"scenario.txt unreadable ({exc})")
            return
        pairs = dict(
            (k.strip(), v.strip())
            for k, _, v in (ln.partition("=") for ln in text.splitlines())
            if v and not k.startswith("#")
        )
        eps_label, eps_meas = PRESET_EPS["both"]
        expected = {"name": "both", "dims": str(P), "classes": str(G), "seed": str(self.seed),
                    "eps_label": repr(eps_label), "eps_meas": repr(eps_meas)}
        for g, n in enumerate(class_sizes(self.scale), start=1):
            kind, center, scale = PRESET_CONTAMINATION[g - 1]
            expected[f"class{g}.n"] = str(n)
            expected[f"class{g}.mu"] = tuple(map(float, PRESET_MU[g - 1]))
            expected[f"class{g}.sigma_diag"] = tuple(map(float, PRESET_SIGMA_DIAG[g - 1]))
            expected[f"class{g}.noise_kind"] = kind
            expected[f"class{g}.noise_center"] = tuple(map(float, center))
            if kind == "cluster":
                expected[f"class{g}.noise_scale"] = repr(scale)
        for key, want in expected.items():
            got = pairs.get(key)
            if isinstance(want, tuple) and got is not None:
                got = tuple(map(float, got.split()))
            if got != want:
                problems.append(f"scenario.txt: {key} = {got!r}, expected {want!r}")

    def check(self) -> tuple:
        problems: list = []
        self._check_scenario(problems)
        metrics_header = "class,kl_mean,kl_sd,det_mean,det_sd,alpha_mean,alpha_sd"
        robust = _read_table(self.out / "metrics_robust.csv", metrics_header, problems)
        classical = _read_table(self.out / "metrics_classical.csv", metrics_header, problems)
        conf_header = ("origin,given," + ",".join(f"pred_{g}" for g in range(1, G + 1))
                       + ",pred_0,rows")
        conf = _read_table(self.out / "confusion_robust.csv", conf_header, problems)
        report = self.out / "report.txt"
        if not report.exists() or "method: robust" not in report.read_text(encoding="utf-8"):
            problems.append("report.txt is missing the robust section")
        if robust is None or classical is None or conf is None:
            return problems, None
        if robust.shape != (G, 7) or classical.shape != (G, 7):
            problems.append("metrics files should hold one row per class")
            return problems, None
        if not _close(conf[:, 2 : 3 + G].sum(axis=1), np.ones(conf.shape[0]), 1e-6):
            problems.append("confusion_robust.csv rows do not sum to 1")
        true_dets = np.array([np.prod(d) for d in PRESET_SIGMA_DIAG], dtype=np.float64)
        if np.any(np.abs(np.log(robust[:, 3] / true_dets)) > 0.5):
            problems.append(f"robust scatter determinants {robust[:, 3].tolist()} far from the truth")
        if not classical[:, 1].max() > robust[:, 1].max():
            problems.append("the classical fit is not worse than the robust one under contamination")
        clean = conf[conf[:, 0] == conf[:, 1]]
        eps_label, eps_meas = PRESET_EPS["both"]
        expected_rows = [n - math.floor(eps_label * n) - math.floor(eps_meas * n)
                         for n in class_sizes(self.scale)]
        if clean[:, 0].tolist() != list(range(1, G + 1)) or clean[:, -1].tolist() != expected_rows:
            problems.append("confusion_robust.csv clean rows do not match the scenario")
            return problems, None
        hits = clean[np.arange(G), 1 + clean[:, 0].astype(int)]
        quality = {
            "kl_max": float(robust[:, 1].max()),
            "clean_accuracy": float((hits * clean[:, -1]).sum() / clean[:, -1].sum()),
            "noise_flag_rate": float(robust[:, 5].mean()),
        }
        _gate(quality, problems)
        return problems, quality


WORKLOADS = {w.name: w for w in (FitDiagnose, ScoreBulk, StudyContaminated)}

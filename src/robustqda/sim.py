"""Contamination study harness.

Generates labeled Gaussian mixtures with two independent noise
mechanisms (random relabeling and replacement by measurement outliers),
fits classical and robust QDA models on the contaminated data, and
summarizes the damage through extended confusion matrices, per-class KL
divergence of the scatter estimates, covariance determinants, and the
fraction of planted noise flagged as outlying.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import block_mcd
from ._threads import process_map
from .core import LocationScatter, check_seed, distinct, mvn_sample, substream
from .errors import ConfigError, DataError, DimensionMismatch, ZeroNoise
from .fileio import csv_text, write_text_atomic
from .presets import PRESET_EPS, preset_names
from .qda import OUTLIER_LABEL, classify_rows, fit_qda

__all__ = [
    "ClassSpec",
    "Contamination",
    "ExtendedConfusion",
    "MethodReport",
    "Scenario",
    "StudyReport",
    "Tags",
    "alpha_metric",
    "average_confusions",
    "extended_confusion",
    "format_scenario",
    "generate",
    "kl_metric",
    "parse_scenario",
    "preset_scenario",
    "run_study",
    "two_class_demo",
    "write_study_report",
]

KIND_CLEAN = 0
KIND_MISLABELED = 1
KIND_REPLACED = 2

# Subset fraction and block count of every study fit, printed in the report.
_H_FRAC = 0.5
_BLOCKS = 4


@dataclass(frozen=True)
class Tags:
    """Vectorized provenance for a generated dataset."""

    origin: np.ndarray
    given: np.ndarray
    kind: np.ndarray

    def __post_init__(self):
        for arr in (self.origin, self.given, self.kind):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return self.origin.shape[0]


@dataclass(frozen=True)
class Contamination:
    """Measurement-noise generator for one class.

    kind ``cluster``: draws from N(center, scale * sigma_g);
    kind ``shift``: draws from N(center, sigma_g);
    kind ``point``: every replaced row equals ``center`` exactly.
    """

    kind: str
    center: tuple
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("cluster", "point", "shift"):
            raise ConfigError(f"contamination kind must be cluster, point, or shift, got {self.kind!r}")
        object.__setattr__(self, "center", tuple(float(v) for v in self.center))
        if not 0.0 < self.scale < math.inf:
            raise ConfigError(f"contamination scale must be positive and finite, got {self.scale!r}")


@dataclass(frozen=True)
class ClassSpec:
    n: int
    mu: tuple
    sigma: tuple
    contamination: Contamination | None = None

    def __post_init__(self):
        object.__setattr__(self, "mu", tuple(float(v) for v in self.mu))
        sig = np.asarray(self.sigma, dtype=np.float64)
        if sig.ndim == 1:
            sig = np.diag(sig)
        object.__setattr__(self, "sigma", tuple(tuple(row) for row in sig))
        if self.n < 1:
            raise ConfigError(f"class size must be positive, got {self.n}")

    @property
    def p(self) -> int:
        return len(self.mu)

    def loc_scat(self) -> LocationScatter:
        return LocationScatter.from_sigma(np.array(self.mu), np.array(self.sigma))


@dataclass(frozen=True)
class Scenario:
    classes: tuple
    eps_label: float = 0.0
    eps_meas: float = 0.0
    seed: int = 0
    name: str = "custom"

    def __post_init__(self):
        if len(self.classes) < 2:
            raise ConfigError("a scenario needs at least two classes")
        check_seed(self.seed)
        p = self.classes[0].p
        for i, cls in enumerate(self.classes, start=1):
            if cls.p != p:
                raise ConfigError(f"class {i} has dimension {cls.p}, expected {p}")
            n_center = p if cls.contamination is None else len(cls.contamination.center)
            if n_center != p:
                raise ConfigError(f"class {i}: contamination center has dimension {n_center}, expected {p}")
        for name, eps in (("eps_label", self.eps_label), ("eps_meas", self.eps_meas)):
            if not (0.0 <= eps < 0.5):
                raise ConfigError(f"{name} must lie in [0, 0.5), got {eps!r}")
        if self.eps_label + self.eps_meas >= 0.5:
            raise ConfigError("eps_label + eps_meas must stay below 0.5")
        if self.eps_meas > 0.0:
            for i, cls in enumerate(self.classes, start=1):
                if cls.contamination is None:
                    raise ConfigError(f"class {i} needs a contamination spec when eps_meas > 0")

    @property
    def p(self) -> int:
        return self.classes[0].p

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def n_total(self) -> int:
        return sum(c.n for c in self.classes)


def generate(scenario: Scenario, rng: np.random.Generator):
    """Draw one contaminated dataset from ``rng``.

    Per class: sample ``n_g`` rows from the class Gaussian; relabel
    ``floor(eps_label * n_g)`` of them, spread as evenly as possible over
    the other labels; then replace ``floor(eps_meas * n_g)`` rows that are
    still clean with draws from the contamination spec (these keep the
    class label).  Returns ``(X, tags)`` with rows grouped by origin
    class; the labels are ``tags.given``.  The study draws replication r
    from ``core.substream(scenario.seed, r, 0)``.
    """
    G = scenario.n_classes
    xs, ys, kinds = [], [], []
    for g, cls in enumerate(scenario.classes, start=1):
        Xg = mvn_sample(rng, cls.loc_scat(), cls.n)
        yg = np.full(cls.n, g, dtype=np.int64)
        kind = np.full(cls.n, KIND_CLEAN, dtype=np.int8)

        m_label = int(math.floor(scenario.eps_label * cls.n))
        if m_label > 0:
            chosen = rng.choice(cls.n, size=m_label, replace=False)
            others = [k for k in range(1, G + 1) if k != g]
            for part, other in zip(np.array_split(chosen, len(others)), others):
                yg[part] = other
            kind[chosen] = KIND_MISLABELED

        m_meas = int(math.floor(scenario.eps_meas * cls.n))
        if m_meas > 0:
            chosen = rng.choice(np.flatnonzero(kind == KIND_CLEAN), size=m_meas, replace=False)
            spec = cls.contamination
            center = np.array(spec.center)
            if spec.kind == "point":
                Xg[chosen] = center
            else:
                scale = spec.scale if spec.kind == "cluster" else 1.0
                noise_ls = LocationScatter.from_sigma(center, scale * np.array(cls.sigma))
                Xg[chosen] = mvn_sample(rng, noise_ls, m_meas)
            kind[chosen] = KIND_REPLACED

        xs.append(Xg)
        ys.append(yg)
        kinds.append(kind)
    origin = np.repeat(np.arange(1, G + 1, dtype=np.int64), [cls.n for cls in scenario.classes])
    tags = Tags(origin=origin, given=np.concatenate(ys), kind=np.concatenate(kinds))
    return np.concatenate(xs, axis=0), tags


@dataclass(frozen=True)
class ExtendedConfusion:
    """Row-stochastic confusion over provenance subclasses.

    Row keys are ``(origin, given)`` pairs where ``given`` is 0 for
    replaced (measurement-noise) rows; the G + 1 columns are the predicted
    classes 1..G followed by the outlier class 0.
    """

    row_keys: tuple
    rates: np.ndarray
    row_counts: np.ndarray

    def __post_init__(self):
        self.rates.setflags(write=False)
        self.row_counts.setflags(write=False)

    @property
    def n_classes(self) -> int:
        return self.rates.shape[1] - 1

    def rate(self, origin: int, given: int, predicted: int) -> float:
        """Rate in row (origin, given) for a predicted class (0 = outlier)."""
        try:
            r = self.row_keys.index((origin, given))
        except ValueError:
            raise DataError(f"no subclass row ({origin}, {given})") from None
        col = self.n_classes if predicted == OUTLIER_LABEL else predicted - 1
        return float(self.rates[r, col])


def extended_confusion(pred_labels, tags: Tags, n_classes: int) -> ExtendedConfusion:
    """Bucket predictions by provenance subclass.

    Rows ordered by origin class, then by given label with replaced rows
    (key 0) first; every row is normalized by its own count.  Predictions
    must lie in 0..G, and the tags' origins and given labels in 1..G.
    """
    pred = np.asarray(pred_labels, dtype=np.int64)
    if pred.shape[0] != len(tags):
        raise DimensionMismatch("predictions and tags have different lengths")
    G = int(n_classes)
    if pred.size and (pred.min() < 0 or pred.max() > G):
        raise DataError(f"predictions must lie in 0..{G}")
    classes = np.concatenate([tags.origin, tags.given])
    if classes.size and (classes.min() < 1 or classes.max() > G):
        raise DataError(f"tag origins and given labels must lie in 1..{G}")
    given_key = np.where(tags.kind == KIND_REPLACED, 0, tags.given)
    # origin * (G + 1) + given_key sorts like the (origin, given_key) pair.
    keys, key_row = distinct(tags.origin * (G + 1) + given_key)
    column = np.where(pred == OUTLIER_LABEL, G, pred - 1)
    cells = np.bincount(key_row * (G + 1) + column, minlength=keys.size * (G + 1))
    cells = cells.reshape(keys.size, G + 1)
    counts = cells.sum(axis=1)
    row_keys = tuple(zip((keys // (G + 1)).tolist(), (keys % (G + 1)).tolist()))
    return ExtendedConfusion(row_keys, cells / counts[:, None], counts)


def average_confusions(confusions) -> ExtendedConfusion:
    """Element-wise mean over replications (row keys must agree)."""
    confusions = list(confusions)
    if not confusions:
        raise DataError("no confusion matrices to average")
    first = confusions[0]
    for c in confusions[1:]:
        if c.row_keys != first.row_keys or c.n_classes != first.n_classes:
            raise DataError("confusion matrices have mismatched subclass rows")
    rates = np.mean([c.rates for c in confusions], axis=0)
    counts = np.mean([c.row_counts for c in confusions], axis=0)
    return ExtendedConfusion(first.row_keys, rates, counts)


def kl_metric(sigma_hat, sigma_true) -> float:
    """Gaussian KL divergence of N(0, sigma_hat) from N(0, sigma_true):
    ``trace(hat inv(true)) - p - ln det(hat inv(true))``, the block
    screening's ``block_mcd._kl_core`` at zero means.  Zero iff equal,
    and +inf when ``sigma_hat`` has no positive determinant."""
    hat = np.asarray(sigma_hat, dtype=np.float64)
    zeros = np.zeros(hat.shape[0])
    return block_mcd._kl_core(hat, zeros, [LocationScatter.from_sigma(zeros, sigma_true)])[0]


def alpha_metric(rd_own, tags: Tags, g: int, cutoff: float) -> float:
    """Flagging rate for class ``g``: rows with given label g whose own-class
    distance exceeds ``cutoff``, relative to the planted noise carrying
    that label.  Values near 1 mean the noise (and little else) is caught.
    """
    rd_own = np.asarray(rd_own, dtype=np.float64)
    if rd_own.shape[0] != len(tags):
        raise DimensionMismatch("rd_own and tags have different lengths")
    mask = tags.given == g
    noisy = int(np.count_nonzero(mask & (tags.kind != KIND_CLEAN)))
    if noisy == 0:
        raise ZeroNoise(f"class {g} carries no planted noise")
    flagged = int(np.count_nonzero(mask & (rd_own > cutoff)))
    return flagged / noisy


@dataclass(frozen=True)
class MethodReport:
    mode: str
    confusion: ExtendedConfusion
    kl_mean: np.ndarray
    kl_sd: np.ndarray
    det_mean: np.ndarray
    det_sd: np.ndarray
    alpha_mean: np.ndarray | None
    alpha_sd: np.ndarray | None
    seconds: tuple


@dataclass(frozen=True)
class StudyReport:
    scenario: Scenario
    reps: int
    methods: tuple  # of MethodReport

    def method(self, mode: str) -> MethodReport:
        for m in self.methods:
            if m.mode == mode:
                return m
        raise DataError(f"no report for method {mode!r}")


def _spread(values: np.ndarray) -> np.ndarray:
    if values.shape[0] < 2:
        return np.zeros(values.shape[1:])
    return values.std(axis=0, ddof=1)


def _run_rep(scenario: Scenario, methods: tuple, rep: int) -> dict:
    """Replication ``rep`` of the study: per method, a dict of its
    confusion, per-class kl, det and alpha (None without planted noise;
    NaN for a class that carries none of it), and the seconds taken by
    the fit and the scoring."""
    X, tags = generate(scenario, substream(scenario.seed, rep, 0))
    fit_seed = int(np.random.SeedSequence(scenario.seed, spawn_key=(rep, 1)).generate_state(1)[0])
    G = scenario.n_classes
    true_sigmas = [np.array(cls.sigma) for cls in scenario.classes]
    has_noise = scenario.eps_label + scenario.eps_meas > 0.0
    rows = {}
    for mode in methods:
        start = time.perf_counter()
        model = fit_qda(X, tags.given, mode=mode, h_frac=_H_FRAC, blocks=_BLOCKS, seed=fit_seed)
        labels, _, rd, _ = classify_rows(model, X)
        elapsed = time.perf_counter() - start
        alpha = None
        if has_noise:
            rd_own = rd[np.arange(rd.shape[0]), tags.given - 1]
            alpha = []
            for g in range(1, G + 1):
                try:
                    alpha.append(alpha_metric(rd_own, tags, g, model.outlier_cutoff))
                except ZeroNoise:
                    alpha.append(math.nan)
        rows[mode] = {
            "confusion": extended_confusion(labels, tags, G),
            "kl": [kl_metric(model.classes[g].loc_scat.sigma, true_sigmas[g]) for g in range(G)],
            "det": [math.exp(model.classes[g].loc_scat.log_det) for g in range(G)],
            "alpha": alpha,
            "seconds": elapsed,
        }
    return rows


def run_study(scenario: Scenario, reps: int = 5, methods: tuple = ("robust", "classical")) -> StudyReport:
    """Run ``reps`` replications of the scenario for each method.

    Every fit uses ``_H_FRAC``, ``_BLOCKS`` and ``qda.OUTLIER_QUANTILE``.
    Replication r draws its data from ``core.substream(seed, r, 0)`` and
    seeds the fit with the first word of the seed sequence behind
    ``core.substream(seed, r, 1)``, so the study is reproducible end to
    end and replications are independent.  They run on up to
    ``ROBUST_QDA_THREADS`` forked processes
    (:func:`~robustqda._threads.process_map`) and are averaged in
    replication order, so the report is the same for any worker count.
    """
    if reps < 1:
        raise ConfigError(f"reps must be positive, got {reps}")
    for mode in methods:
        if mode not in ("robust", "classical"):
            raise ConfigError(f"unknown method {mode!r}")
    # Load here, before the workers fork, what every replication runs, so
    # that they inherit it instead of each loading it again: numpy.random
    # (which brings hashlib and OpenSSL) and the lazily loaded fit modules,
    # whose bodies run at the first attribute read (see the package's
    # __init__): robust fits run them, and every KL reads block_mcd.
    import numpy.random  # noqa: F401

    block_mcd.blockwise_mcd
    per_rep = process_map(partial(_run_rep, scenario, methods), range(reps))

    reports = []
    for mode in methods:
        rows = [rep_rows[mode] for rep_rows in per_rep]
        kl = np.asarray([row["kl"] for row in rows])
        det = np.asarray([row["det"] for row in rows])
        alpha = None if rows[0]["alpha"] is None else np.asarray([row["alpha"] for row in rows])
        reports.append(
            MethodReport(
                mode=mode,
                confusion=average_confusions(row["confusion"] for row in rows),
                kl_mean=kl.mean(axis=0),
                kl_sd=_spread(kl),
                det_mean=det.mean(axis=0),
                det_sd=_spread(det),
                alpha_mean=None if alpha is None else alpha.mean(axis=0),
                alpha_sd=None if alpha is None else _spread(alpha),
                seconds=tuple(row["seconds"] for row in rows),
            )
        )
    return StudyReport(scenario=scenario, reps=reps, methods=tuple(reports))


# ---------------------------------------------------------------------------
# Reference scenario presets (three well-separated Gaussian classes in p = 5).

_PRESET_MU = ((6, 0, 0, 0, 0), (0, 0, 6, 0, 0), (0, 0, 0, 0, 6))
_PRESET_SIGMA_DIAG = ((1, 1, 1, 1, 1), (1, 2, 3, 4, 5), (1, 1, 1, 5, 10))
_PRESET_N = (250_000, 350_000, 400_000)
_PRESET_CONTAMINATION = (
    Contamination(kind="cluster", center=(-6, 0, 0, 0, 0), scale=0.1),
    Contamination(kind="point", center=(0, 0, -15, 0, 20)),
    Contamination(kind="shift", center=(14, 0, 0, 0, -6)),
)

def preset_scenario(name: str, *, scale: float = 0.01) -> Scenario:
    """One of the built-in contamination setups, size-scaled, with seed 0.

    ``scale=0.01`` turns the reference class sizes (250k/350k/400k) into a
    desk-scale 2500/3500/4000 dataset.  Another seed is set with
    ``dataclasses.replace``, as ``simulate --seed`` does.
    """
    if name not in PRESET_EPS:
        raise ConfigError(f"unknown preset {name!r}; choose from {', '.join(preset_names())}")
    if not 0.0 < scale < math.inf:
        raise ConfigError(f"scale must be positive and finite, got {scale!r}")
    eps_label, eps_meas = PRESET_EPS[name]
    classes = tuple(
        ClassSpec(
            n=max(1, int(round(n * scale))),
            mu=mu,
            sigma=sigma_diag,
            contamination=contam,
        )
        for n, mu, sigma_diag, contam in zip(
            _PRESET_N, _PRESET_MU, _PRESET_SIGMA_DIAG, _PRESET_CONTAMINATION
        )
    )
    return Scenario(classes=classes, eps_label=eps_label, eps_meas=eps_meas, name=name)


# ---------------------------------------------------------------------------
# Scenario file format: flat "key = value" lines, # comments, 1-based
# class prefixes.  See parse_scenario for the key list.

def _fmt_floats(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def format_scenario(scenario: Scenario) -> str:
    lines = [
        "# robust-qda scenario",
        f"name = {scenario.name}",
        f"dims = {scenario.p}",
        f"classes = {scenario.n_classes}",
        f"seed = {scenario.seed}",
        f"eps_label = {scenario.eps_label!r}",
        f"eps_meas = {scenario.eps_meas!r}",
    ]
    for g, cls in enumerate(scenario.classes, start=1):
        lines.append(f"class{g}.n = {cls.n}")
        lines.append(f"class{g}.mu = {_fmt_floats(cls.mu)}")
        sigma = np.array(cls.sigma)
        if np.array_equal(sigma, np.diag(np.diag(sigma))):
            lines.append(f"class{g}.sigma_diag = {_fmt_floats(np.diag(sigma))}")
        else:
            lines.append(f"class{g}.sigma_rows = {_fmt_floats(sigma.ravel())}")
        if cls.contamination is not None:
            lines.append(f"class{g}.noise_kind = {cls.contamination.kind}")
            lines.append(f"class{g}.noise_center = {_fmt_floats(cls.contamination.center)}")
            if cls.contamination.kind == "cluster":
                lines.append(f"class{g}.noise_scale = {cls.contamination.scale!r}")
    return "\n".join(lines) + "\n"


def parse_scenario(text: str) -> Scenario:
    """Parse the flat key-value scenario format.

    Keys: ``dims``, ``classes``, ``seed``, ``eps_label``, ``eps_meas``,
    ``name`` (optional), and per class ``classK.n``, ``classK.mu``,
    ``classK.sigma_diag`` or ``classK.sigma_rows`` (row-major p*p values),
    plus optional ``classK.noise_kind`` / ``classK.noise_center`` /
    ``classK.noise_scale``.
    """
    pairs: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in pairs:
            raise ConfigError(f"line {ln}: duplicate key {key!r}")
        pairs[key] = value.strip()

    def take(key: str, default=None) -> str:
        if key in pairs:
            return pairs.pop(key)
        if default is not None:
            return default
        raise ConfigError(f"missing required key {key!r}")

    def floats(text_value: str, expect: int | None = None, *, key: str = "") -> tuple:
        try:
            values = tuple(float(v) for v in text_value.split())
        except ValueError:
            raise ConfigError(f"{key}: expected numbers, got {text_value!r}") from None
        if not all(math.isfinite(v) for v in values):
            raise ConfigError(f"{key}: expected finite numbers, got {text_value!r}")
        if expect is not None and len(values) != expect:
            raise ConfigError(f"{key}: expected {expect} values, got {len(values)}")
        return values

    try:
        p = int(take("dims"))
        G = int(take("classes"))
        seed = int(take("seed", "0"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    name = take("name", "custom")
    eps_label = floats(take("eps_label", "0"), 1, key="eps_label")[0]
    eps_meas = floats(take("eps_meas", "0"), 1, key="eps_meas")[0]
    classes = []
    for g in range(1, G + 1):
        prefix = f"class{g}."
        try:
            n_g = int(take(prefix + "n"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        mu = floats(take(prefix + "mu"), p, key=prefix + "mu")
        if prefix + "sigma_diag" in pairs:
            sigma = np.diag(floats(pairs.pop(prefix + "sigma_diag"), p, key=prefix + "sigma_diag"))
        elif prefix + "sigma_rows" in pairs:
            flat = floats(pairs.pop(prefix + "sigma_rows"), p * p, key=prefix + "sigma_rows")
            sigma = np.array(flat).reshape(p, p)
        else:
            raise ConfigError(f"class {g}: needs sigma_diag or sigma_rows")
        contamination = None
        if prefix + "noise_kind" in pairs:
            kind = pairs.pop(prefix + "noise_kind")
            center = floats(take(prefix + "noise_center"), p, key=prefix + "noise_center")
            scale = floats(take(prefix + "noise_scale", "1"), 1, key=prefix + "noise_scale")[0]
            contamination = Contamination(kind=kind, center=center, scale=scale)
        classes.append(ClassSpec(n=n_g, mu=mu, sigma=sigma, contamination=contamination))
    if pairs:
        raise ConfigError(f"unknown keys: {', '.join(sorted(pairs))}")
    return Scenario(
        classes=tuple(classes), eps_label=eps_label, eps_meas=eps_meas, seed=seed, name=name
    )


# ---------------------------------------------------------------------------
# Two-class demonstration data: mild overlap, a few swapped labels, and two
# planted outlier clusters that lean toward class 1.

_DEMO_N = (80, 100)  # rows per class
_DEMO_SWAPS = (4, 4)  # rows given the other class's label
_DEMO_PLANTED = (5, 8)  # rows replaced by an outlier, keeping their label


def two_class_demo():
    """Bivariate two-class dataset with label swaps and planted outliers,
    drawn from ``core.substream(0)``.

    Returns ``(X, y, info)`` where ``info`` records the affected row
    indices: ``swapped_1``/``swapped_2`` (rows of class 1/2 that received
    the other label) and ``planted_1``/``planted_2`` (rows replaced by
    outliers, keeping their label).  The planted clusters sit closer to
    class 1 than class 2 but outside the 0.99 ellipsoid of both.
    """
    n1, n2 = _DEMO_N
    rng = substream(0)
    ls1 = LocationScatter.from_sigma([0.0, 0.0], [[1.0, 0.5], [0.5, 1.2]])
    ls2 = LocationScatter.from_sigma([3.8, 2.0], [[1.3, -0.4], [-0.4, 0.9]])
    X = np.vstack([mvn_sample(rng, ls1, n1), mvn_sample(rng, ls2, n2)])
    y = np.concatenate([np.full(n1, 1, dtype=np.int64), np.full(n2, 2, dtype=np.int64)])

    rows1 = np.arange(n1)
    rows2 = n1 + np.arange(n2)
    swapped_1 = np.sort(rng.choice(rows1, size=_DEMO_SWAPS[0], replace=False))
    swapped_2 = np.sort(rng.choice(rows2, size=_DEMO_SWAPS[1], replace=False))
    y[swapped_1] = 2
    y[swapped_2] = 1

    clean1 = np.setdiff1d(rows1, swapped_1)
    clean2 = np.setdiff1d(rows2, swapped_2)
    planted_1 = np.sort(rng.choice(clean1, size=_DEMO_PLANTED[0], replace=False))
    planted_2 = np.sort(rng.choice(clean2, size=_DEMO_PLANTED[1], replace=False))
    tight = LocationScatter.from_sigma([0.0, 0.0], 0.05 * np.eye(2))
    X[planted_1] = np.array([-4.0, -6.0]) + mvn_sample(rng, tight, _DEMO_PLANTED[0])
    X[planted_2] = np.array([-4.0, 1.5]) + mvn_sample(rng, tight, _DEMO_PLANTED[1])

    info = {
        "swapped_1": swapped_1,
        "swapped_2": swapped_2,
        "planted_1": planted_1,
        "planted_2": planted_2,
    }
    return X, y, info


# ---------------------------------------------------------------------------
# Report files.  Timings are kept out of these on purpose so that reruns
# with the same seed are byte-identical; the CLI prints them separately.

def _confusion_csv(conf: ExtendedConfusion) -> str:
    G = conf.n_classes
    header = ["origin", "given"] + [f"pred_{g}" for g in range(1, G + 1)] + ["pred_0", "rows"]
    keys = np.array(conf.row_keys, dtype=np.int64).reshape(-1, 2)
    columns = [keys[:, 0], keys[:, 1], *conf.rates.T, conf.row_counts]
    return csv_text(",".join(header), "%d,%d" + ",%.9g" * (G + 2), columns)


def _class_alphas(report: MethodReport, G: int) -> list:
    """Per class, its alpha mean and sd, or None for a class that carries
    no planted noise."""
    if report.alpha_mean is None:
        return [None] * G
    pairs = zip(report.alpha_mean.tolist(), report.alpha_sd.tolist())
    return [None if math.isnan(mean) else (mean, sd) for mean, sd in pairs]


def _metrics_csv(report: MethodReport, G: int) -> str:
    header = "class,kl_mean,kl_sd,det_mean,det_sd,alpha_mean,alpha_sd"
    columns = [np.arange(1, G + 1), report.kl_mean, report.kl_sd, report.det_mean, report.det_sd]
    alpha = np.array(["," if a is None else "%.9g,%.9g" % a for a in _class_alphas(report, G)])
    return csv_text(header, "%d" + ",%.9g" * 4 + ",%s", [*columns, alpha])


def _text_report(study: StudyReport) -> str:
    sc = study.scenario
    G = sc.n_classes
    out = [
        f"scenario: {sc.name}",
        f"  classes={G} dims={sc.p} n={sc.n_total} seed={sc.seed}",
        f"  eps_label={sc.eps_label:g} eps_meas={sc.eps_meas:g}",
        f"  reps={study.reps} h_frac={_H_FRAC:g} blocks={_BLOCKS}",
        "",
    ]
    for report in study.methods:
        out.append(f"method: {report.mode}")
        out.append("  extended confusion (row: origin/given, column: predicted)")
        head = "    origin given |" + "".join(f"  pred {g}" for g in range(1, G + 1)) + "  pred 0    rows"
        out.append(head)
        for r, (origin, given) in enumerate(report.confusion.row_keys):
            cells = "".join(f"  {report.confusion.rates[r, c]:6.3f}" for c in range(G + 1))
            out.append(f"    {origin:6d} {given:5d} |{cells}  {report.confusion.row_counts[r]:8.1f}")
        out.append("  per-class metrics (mean over reps, sd in parentheses)")
        out.append("    class        KL                det             alpha")
        for g, a in enumerate(_class_alphas(report, G)):
            kl = f"{report.kl_mean[g]:.4g} ({report.kl_sd[g]:.2g})"
            det = f"{report.det_mean[g]:.5g} ({report.det_sd[g]:.2g})"
            alpha = "-" if a is None else f"{a[0]:.3f} ({a[1]:.2g})"
            out.append(f"    {g + 1:5d}  {kl:>16s}  {det:>16s}  {alpha:>14s}")
        out.append("")
    return "\n".join(out)


def write_study_report(study: StudyReport, outdir) -> list:
    """Write scenario, confusion, metrics, and summary files; returns paths."""
    outdir = Path(outdir)
    written = [write_text_atomic(outdir / "scenario.txt", format_scenario(study.scenario))]
    for report in study.methods:
        written.append(
            write_text_atomic(outdir / f"confusion_{report.mode}.csv", _confusion_csv(report.confusion))
        )
        written.append(
            write_text_atomic(
                outdir / f"metrics_{report.mode}.csv", _metrics_csv(report, study.scenario.n_classes)
            )
        )
    written.append(write_text_atomic(outdir / "report.txt", _text_report(study)))
    return written

"""Benchmark inputs and their ground truth, made with numpy alone.

The preset geometry below is a copy of the constants in
``robustqda.sim``.  It is copied on purpose: the CSVs that ``fit-diagnose``
and ``score-bulk`` feed to the CLI must not change when the package's own
generator or CSV writer changes, so this module draws the rows and writes
the files itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

P = 5
PRESET_MU = ((6, 0, 0, 0, 0), (0, 0, 6, 0, 0), (0, 0, 0, 0, 6))
PRESET_SIGMA_DIAG = ((1, 1, 1, 1, 1), (1, 2, 3, 4, 5), (1, 1, 1, 5, 10))
PRESET_N = (250_000, 350_000, 400_000)
# (kind, center, scale) per class, as in the package's presets.
PRESET_CONTAMINATION = (
    ("cluster", (-6, 0, 0, 0, 0), 0.1),
    ("point", (0, 0, -15, 0, 20), 1.0),
    ("shift", (14, 0, 0, 0, -6), 1.0),
)
# (eps_label, eps_meas) of the presets the workloads use.
PRESET_EPS = {"label": (0.2, 0.0), "both": (0.1, 0.1)}

KIND_CLEAN = 0
KIND_MISLABELED = 1


@dataclass(frozen=True)
class Labeled:
    """Rows plus their truth: origin class, given label and kind per row."""

    X: np.ndarray
    origin: np.ndarray
    given: np.ndarray
    kind: np.ndarray


def class_sizes(scale: float) -> tuple:
    return tuple(max(1, int(round(n * scale))) for n in PRESET_N)


def true_sigmas() -> list:
    return [np.diag(np.asarray(d, dtype=np.float64)) for d in PRESET_SIGMA_DIAG]


def label_preset(scale: float, rng: np.random.Generator) -> Labeled:
    """Draw the ``label`` preset: 20% of each class relabeled, spread evenly
    over the other classes.  Rows are shuffled so that no class block is
    contiguous in the file."""
    eps_label, _ = PRESET_EPS["label"]
    G = len(PRESET_MU)
    xs, origins, givens = [], [], []
    for g, n in enumerate(class_sizes(scale), start=1):
        mu = np.asarray(PRESET_MU[g - 1], dtype=np.float64)
        sd = np.sqrt(np.asarray(PRESET_SIGMA_DIAG[g - 1], dtype=np.float64))
        xs.append(mu + rng.standard_normal((n, P)) * sd)
        given = np.full(n, g, dtype=np.int64)
        m = int(math.floor(eps_label * n))
        chosen = rng.choice(n, size=m, replace=False)
        others = [k for k in range(1, G + 1) if k != g]
        for j, other in enumerate(others):
            given[chosen[j :: len(others)]] = other
        origins.append(np.full(n, g, dtype=np.int64))
        givens.append(given)
    perm = rng.permutation(sum(x.shape[0] for x in xs))
    origin = np.concatenate(origins)[perm]
    given = np.concatenate(givens)[perm]
    kind = np.where(origin == given, KIND_CLEAN, KIND_MISLABELED).astype(np.int8)
    return Labeled(X=np.concatenate(xs)[perm], origin=origin, given=given, kind=kind)


def write_csv(path, X: np.ndarray, labels=None) -> int:
    """Write features (and an integer ``label`` column) with shortest
    round-trip decimals; returns the file size in bytes."""
    header = [f"x{j + 1}" for j in range(X.shape[1])]
    rows = [",".join(map(repr, row)) for row in X.tolist()]
    if labels is not None:
        header.append("label")
        rows = [f"{r},{lbl}" for r, lbl in zip(rows, labels.tolist())]
    data = ("\n".join([",".join(header)] + rows) + "\n").encode("ascii")
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


def gaussian_kl(sigma_hat: np.ndarray, sigma_true: np.ndarray) -> float:
    """The study's KL measure of ``sigma_hat`` against ``sigma_true``:
    ``trace(hat true^-1) - p - ln det(hat true^-1)``, which is twice the
    Gaussian KL divergence in nats and zero only at equality."""
    ratio = np.linalg.solve(sigma_true, sigma_hat)
    sign, logdet = np.linalg.slogdet(ratio)
    if sign <= 0:
        return math.inf
    return float(np.trace(ratio) - ratio.shape[0] - logdet)

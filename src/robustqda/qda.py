"""Quadratic discriminant analysis with an explicit outlier class.

Class-conditional Gaussians are fitted either classically (sample mean
and covariance) or robustly via the block-parallel MCD.  Prediction
assigns the reserved label 0 to any point whose robust distance to every
class exceeds the chi-square cutoff; otherwise the class with the largest
quadratic discriminant score wins, ties going to the smaller label.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import block_mcd
from .core import (
    LocationScatter,
    _mean_cov,
    as_data_matrix,
    check_block_count,
    check_fraction,
    check_seed,
    chi2_quantile,
    distinct,
    substream,
)
from .errors import (
    DataError,
    DimensionMismatch,
    EmptyClassAfterTrim,
    RobustQdaError,
    TooFewObservations,
)

__all__ = [
    "ClassModel",
    "QdaModel",
    "classify_rows",
    "fit_qda",
]

OUTLIER_LABEL = 0
OUTLIER_QUANTILE = 0.99  # chi-square quantile of every fit's outlier cutoff


@dataclass(frozen=True)
class ClassModel:
    """Per-class Gaussian fit plus bookkeeping counts.  A class's label
    is its position in ``QdaModel.classes`` plus one."""

    loc_scat: LocationScatter
    prior: float
    n_raw: int
    n_inlier: int
    blocks: int = 1


@dataclass(frozen=True)
class QdaModel:
    classes: tuple
    mode: str
    outlier_quantile: float
    outlier_cutoff: float
    h_frac: float
    blocks_requested: str
    seed: int

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def p(self) -> int:
        return self.classes[0].loc_scat.p

    @property
    def priors(self) -> np.ndarray:
        return np.array([c.prior for c in self.classes])


def _validate_labels(y, n: int) -> tuple[np.ndarray, int]:
    y = np.asarray(y)
    if y.ndim != 1 or y.shape[0] != n:
        raise DimensionMismatch(f"labels must be a vector of length {n}")
    if not np.issubdtype(y.dtype, np.integer):
        yf = np.asarray(y, dtype=np.float64)
        if not np.all(np.isfinite(yf)) or np.any(yf != np.round(yf)):
            raise DataError("labels must be integers")
        y = yf.astype(np.int64)
    else:
        y = y.astype(np.int64)
    present, _ = distinct(y)
    if present[0] < 1:
        raise DataError(f"labels must be positive (0 is reserved for outliers), got {present[0]}")
    G = int(present[-1])
    if present.shape[0] != G or not np.array_equal(present, np.arange(1, G + 1)):
        raise DataError("labels must be 1..G contiguous")
    if G < 2:
        raise DataError("training data must contain at least two classes")
    return y, G


def _fit_classical(Xg: np.ndarray) -> LocationScatter:
    n_g, p = Xg.shape
    if n_g <= p:
        raise TooFewObservations(f"classical covariance needs more than p={p} rows, got {n_g}")
    return LocationScatter.from_sigma(*_mean_cov(Xg))


def _own_class_inlier_counts(X, y, estimates, cutoff: float, G: int) -> np.ndarray:
    kept = np.empty(G, dtype=np.int64)
    for g in range(G):
        rows = X[y == g + 1]
        kept[g] = int(np.count_nonzero(estimates[g].distances(rows) <= cutoff))
    return kept


def _trimmed_priors(kept: np.ndarray) -> np.ndarray:
    if np.any(kept == 0):
        bad = int(np.argwhere(kept == 0)[0, 0]) + 1
        raise EmptyClassAfterTrim(f"class {bad}: every observation was trimmed as outlying")
    return kept / kept.sum()


def _check_mode(mode: str) -> None:
    """``DataError`` unless ``mode`` names a fit."""
    if mode not in ("robust", "classical"):
        raise DataError(f"mode must be 'robust' or 'classical', got {mode!r}")


def fit_qda(
    X,
    y,
    *,
    mode: str = "robust",
    h_frac: float = 0.5,
    blocks: int | str = "auto",
    seed: int = 0,
) -> QdaModel:
    """Train a QDA model with classical or robust class-conditional fits.

    Robust mode estimates each class with :func:`blockwise_mcd` (block
    count from ``blocks``; ``"auto"`` sizes it from the class's rows) and
    derives priors from the trimmed per-class counts.  Classical mode
    uses sample moments and empirical priors.  ``seed``, a non-negative
    integer, makes robust fits reproducible; each class consumes its own
    substream, built only if its rows are shuffled into more than one
    block, so the result does not depend on fit order.  Both modes
    record ``blocks``, ``h_frac`` and ``seed`` and check them alike.  The
    outlier cutoff is the ``OUTLIER_QUANTILE`` (0.99) chi-square quantile.
    """
    X = as_data_matrix(X)
    n, p = X.shape
    y, G = _validate_labels(y, n)
    _check_mode(mode)
    seed = check_seed(seed)
    if mode == "classical":
        if blocks != "auto":
            check_block_count(blocks)
        check_fraction(h_frac)
    cutoff = math.sqrt(chi2_quantile(p, OUTLIER_QUANTILE))

    fits: list[LocationScatter] = []
    resolved_blocks: list[int] = []
    counts = np.zeros(G, dtype=np.int64)
    for g in range(1, G + 1):
        Xg = X[y == g]
        counts[g - 1] = Xg.shape[0]
        try:
            if mode == "robust":
                result = block_mcd.blockwise_mcd(
                    Xg, h_frac=h_frac, blocks=blocks, rng=partial(substream, seed, g)
                )
                fits.append(result.estimate)
                resolved_blocks.append(result.diagnostics.q)
            else:
                fits.append(_fit_classical(Xg))
                resolved_blocks.append(1)
        except RobustQdaError as exc:
            raise type(exc)(f"class {g}: {exc}") from exc

    inliers = _own_class_inlier_counts(X, y, fits, cutoff, G)
    priors = _trimmed_priors(inliers) if mode == "robust" else counts / counts.sum()

    classes = tuple(
        ClassModel(
            loc_scat=fits[g],
            prior=float(priors[g]),
            n_raw=int(counts[g]),
            n_inlier=int(inliers[g]),
            blocks=resolved_blocks[g],
        )
        for g in range(G)
    )
    return QdaModel(
        classes=classes,
        mode=mode,
        outlier_quantile=OUTLIER_QUANTILE,
        outlier_cutoff=cutoff,
        h_frac=h_frac,
        blocks_requested=str(blocks),
        seed=seed,
    )


def classify_rows(model: QdaModel, X) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized prediction.

    Returns
    -------
    labels : (n,) int array, 0 for overall outliers
    scores : (n, G) discriminant scores
    rd : (n, G) robust (or classical) distances per class
    min_rd : (n,) smallest distance over classes
    """
    X = as_data_matrix(X)
    if X.shape[1] != model.p:
        raise DimensionMismatch(f"X has {X.shape[1]} columns, model expects {model.p}")
    n = X.shape[0]
    G = model.n_classes
    scores = np.empty((n, G))
    rd = np.empty((n, G))
    for g, cm in enumerate(model.classes):
        d2 = cm.loc_scat.squared_distances(X)
        rd[:, g] = np.sqrt(d2)
        scores[:, g] = -0.5 * cm.loc_scat.log_det - 0.5 * d2 + math.log(cm.prior)
    labels = np.argmax(scores, axis=1).astype(np.int64) + 1
    min_rd = rd.min(axis=1)
    labels[min_rd > model.outlier_cutoff] = OUTLIER_LABEL
    return labels, scores, rd, min_rd


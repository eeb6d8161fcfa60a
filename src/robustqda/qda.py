"""Quadratic discriminant analysis with an explicit outlier class.

Class-conditional Gaussians are fitted either classically (sample mean
and covariance) or robustly via the block-parallel MCD.  Prediction
assigns the reserved label 0 to any point whose robust distance to every
class exceeds the chi-square cutoff; otherwise the class with the largest
quadratic discriminant score wins, ties going to the smaller label.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .block_mcd import blockwise_mcd
from .core import LocationScatter, as_data_matrix, chi2_quantile, substream
from .errors import (
    DataError,
    DimensionMismatch,
    EmptyClassAfterTrim,
    RobustQdaError,
    TooFewObservations,
    UnknownClass,
)

__all__ = [
    "ClassModel",
    "Prediction",
    "QdaModel",
    "classify",
    "classify_rows",
    "discriminant_score",
    "fit_qda",
    "label_bias",
    "robust_priors",
]

OUTLIER_LABEL = 0
DEFAULT_OUTLIER_QUANTILE = 0.99


@dataclass(frozen=True)
class ClassModel:
    """Per-class Gaussian fit plus bookkeeping counts."""

    label: int
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


@dataclass(frozen=True)
class Prediction:
    """Outcome for one observation.

    ``label`` is 0 for overall outliers, otherwise the argmax class.
    ``scores`` and ``rd`` always hold one entry per class, in label order.
    """

    label: int
    scores: np.ndarray = field(repr=False)
    min_rd: float
    rd: np.ndarray = field(repr=False)


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
    present = np.unique(y)
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
    mu = Xg.mean(axis=0)
    dev = Xg - mu
    cov = (dev.T @ dev) / (n_g - 1)
    return LocationScatter.from_sigma(mu, cov)


def _own_class_inlier_counts(X, y, estimates, cutoff: float, G: int) -> np.ndarray:
    kept = np.empty(G, dtype=np.int64)
    for g in range(G):
        rows = X[y == g + 1]
        kept[g] = int(np.count_nonzero(estimates[g].distances(rows) <= cutoff))
    return kept


def robust_priors(X, y, estimates, cutoff: float) -> np.ndarray:
    """Priors proportional to per-class counts after dropping rows whose
    robust distance to their own class exceeds ``cutoff``."""
    X = as_data_matrix(X)
    y, G = _validate_labels(y, X.shape[0])
    if len(estimates) != G:
        raise DimensionMismatch(f"expected {G} class estimates, got {len(estimates)}")
    return _trimmed_priors(_own_class_inlier_counts(X, y, estimates, cutoff, G))


def _trimmed_priors(kept: np.ndarray) -> np.ndarray:
    if np.any(kept == 0):
        bad = int(np.argwhere(kept == 0)[0, 0]) + 1
        raise EmptyClassAfterTrim(f"class {bad}: every observation was trimmed as outlying")
    return kept / kept.sum()


def fit_qda(
    X,
    y,
    *,
    mode: str = "robust",
    h_frac: float = 0.5,
    blocks: int | str = "auto",
    seed: int = 0,
    outlier_quantile: float = DEFAULT_OUTLIER_QUANTILE,
) -> QdaModel:
    """Train a QDA model with classical or robust class-conditional fits.

    Robust mode estimates each class with :func:`blockwise_mcd` (block
    count from ``blocks``; ``"auto"`` sizes it from the class's rows) and
    derives priors from the trimmed per-class counts.  Classical mode
    uses sample moments and empirical priors.  ``seed`` makes robust fits
    reproducible; each class consumes its own substream, so the result
    does not depend on fit order.
    """
    X = as_data_matrix(X)
    n, p = X.shape
    y, G = _validate_labels(y, n)
    if mode not in ("robust", "classical"):
        raise DataError(f"mode must be 'robust' or 'classical', got {mode!r}")
    if not (0.0 < outlier_quantile < 1.0):
        raise DataError(f"outlier_quantile must lie in (0, 1), got {outlier_quantile!r}")
    cutoff = math.sqrt(chi2_quantile(p, outlier_quantile))

    fits: list[LocationScatter] = []
    resolved_blocks: list[int] = []
    counts = np.zeros(G, dtype=np.int64)
    for g in range(1, G + 1):
        Xg = X[y == g]
        counts[g - 1] = Xg.shape[0]
        try:
            if mode == "robust":
                result = blockwise_mcd(Xg, h_frac=h_frac, blocks=blocks, rng=substream(seed, g))
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
            label=g + 1,
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
        outlier_quantile=outlier_quantile,
        outlier_cutoff=cutoff,
        h_frac=h_frac,
        blocks_requested=str(blocks),
        seed=int(seed),
    )


def discriminant_score(x, class_model: ClassModel) -> float:
    """Quadratic discriminant score: -log_det/2 - d^2/2 + log prior."""
    d2 = float(class_model.loc_scat.squared_distances(np.asarray(x, dtype=np.float64))[0])
    return -0.5 * class_model.loc_scat.log_det - 0.5 * d2 + math.log(class_model.prior)


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


def classify(model: QdaModel, x) -> Prediction:
    """Predict a single observation (see :func:`classify_rows` for batches)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DimensionMismatch("classify expects a single 1-D observation")
    labels, scores, rd, min_rd = classify_rows(model, x[None, :])
    return Prediction(label=int(labels[0]), scores=scores[0], min_rd=float(min_rd[0]), rd=rd[0])


def label_bias(model: QdaModel, x, given: int) -> float:
    """Square root of the score gap between the best class and ``given``.

    Exactly zero when ``given`` attains the maximum score.
    """
    if not (1 <= given <= model.n_classes):
        raise UnknownClass(f"label {given} is outside 1..{model.n_classes}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DimensionMismatch("label_bias expects a single 1-D observation")
    _, scores, _, _ = classify_rows(model, x[None, :])
    row = scores[0]
    return math.sqrt(row.max() - row[given - 1])

"""Column-wise robust standardization (median center, MAD scale)."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LocationScatter, as_data_matrix, median
from .errors import DimensionMismatch, TooFewObservations, ZeroScale

__all__ = ["MAD_TO_SD", "Standardizer", "destandardize_estimate", "fit_standardizer", "standardize"]

# Median absolute deviation of a standard normal is 1/1.4826..., so this
# factor makes the MAD consistent for the normal standard deviation.
MAD_TO_SD = 1.4826


@dataclass(frozen=True)
class Standardizer:
    """Per-column center (median) and scale (1.4826 * MAD)."""

    center: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center", np.array(self.center, dtype=np.float64))
        object.__setattr__(self, "scale", np.array(self.scale, dtype=np.float64))
        self.center.setflags(write=False)
        self.scale.setflags(write=False)

    @property
    def p(self) -> int:
        return self.center.shape[0]


def fit_standardizer(X) -> Standardizer:
    """Fit medians and scaled MADs column by column.

    Raises
    ------
    ZeroScale
        If any column has zero MAD (a constant variable); the caller must
        drop or perturb that column.
    """
    X = as_data_matrix(X)
    if X.shape[0] < 2:
        raise TooFewObservations("standardization needs at least 2 rows")
    center = median(X, 0)
    mad = median(np.abs(X - center), 0)
    if np.any(mad == 0.0):
        col = int(np.argwhere(mad == 0.0)[0, 0])
        raise ZeroScale(f"column {col} has zero median absolute deviation")
    return Standardizer(center=center, scale=MAD_TO_SD * mad)


def standardize(X, standardizer: Standardizer) -> np.ndarray:
    X = as_data_matrix(X)
    if X.shape[1] != standardizer.p:
        raise DimensionMismatch(f"X has {X.shape[1]} columns, standardizer expects {standardizer.p}")
    return (X - standardizer.center) / standardizer.scale


def destandardize_estimate(estimate: LocationScatter, standardizer: Standardizer) -> LocationScatter:
    """Map a location/scatter fit on standardized data back to raw coordinates."""
    if estimate.p != standardizer.p:
        raise DimensionMismatch(f"estimate has p={estimate.p}, standardizer expects {standardizer.p}")
    s = standardizer.scale
    mu = s * estimate.mu + standardizer.center
    sigma = estimate.sigma * np.outer(s, s)
    return LocationScatter.from_sigma(mu, sigma)

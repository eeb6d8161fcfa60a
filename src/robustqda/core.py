"""Numeric foundations shared by every estimator in the package.

Covers validated data matrices, a location/scatter pair with cached
Cholesky machinery, chi-square quantiles, Mahalanobis distances, and
seeded multivariate normal sampling with reproducible substreams.

Linear algebra runs on numpy alone: distances whiten through one matrix
product with a cached inverse Cholesky factor.  SciPy is imported only
by the chi-square functions, on their first call, so scoring a saved
model never loads it.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, DomainError, DataError, NotPositiveDefinite, NumericError

__all__ = [
    "LocationScatter",
    "as_data_matrix",
    "chi2_cdf",
    "chi2_quantile",
    "mahalanobis",
    "mvn_sample",
    "spd_cholesky",
    "substream",
]

log = logging.getLogger(__name__)

# Condition numbers past this trigger a log message but not an error.
_COND_WARN = 1e12


def as_data_matrix(values, *, name: str = "X") -> np.ndarray:
    """Validate and return an (n, p) float64 data matrix.

    Rejects empty matrices, non-2-D input, and non-finite entries.
    """
    X = np.asarray(values, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got ndim={X.ndim}")
    n, p = X.shape
    if n < 1 or p < 1:
        raise DataError(f"{name} must have at least one row and one column, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        bad = np.argwhere(~np.isfinite(X))[0]
        raise DataError(f"{name} contains a non-finite value at row {bad[0]}, column {bad[1]}")
    return X


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent, reproducible generator for ``(seed, key...)``.

    The same ``(seed, key)`` pair always yields the same stream, and
    distinct keys yield statistically independent streams, so concurrent
    sub-fits can draw without coordinating.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key)))


def _check_square_symmetric(sigma, *, name: str = "sigma") -> np.ndarray:
    S = np.asarray(sigma, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {S.shape}")
    if not np.all(np.isfinite(S)):
        raise DataError(f"{name} contains non-finite entries")
    scale = np.abs(S).max()
    tol = 1e-12 * max(scale, 1.0)
    if np.abs(S - S.T).max() > tol:
        raise DataError(f"{name} is not symmetric to within 1e-12 relative")
    return 0.5 * (S + S.T)


def spd_cholesky(sigma, *, name: str = "sigma") -> tuple[np.ndarray, float, np.ndarray]:
    """Lower Cholesky factor, log-determinant, and inverse of an SPD matrix.

    Raises
    ------
    NotPositiveDefinite
        If the factorization fails or any pivot falls at or below
        ``p * machine_epsilon * max(diagonal)``.  An ill-conditioned but
        factorizable matrix goes through with a logged condition estimate.
    """
    L, log_det = _cholesky_factors(_check_square_symmetric(sigma, name=name), name)
    return L, log_det, _precision(_inverse_factor(L))


def _solve_lower(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solution of ``L X = B`` for a lower-triangular float64 ``L``.

    Raises
    ------
    NumericError
        If ``L`` is singular or the solution overflows.
    """
    try:
        X = np.linalg.solve(L, B)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"triangular solve failed: {exc}") from None
    if not np.isfinite(X).all():
        raise NumericError("triangular solve overflowed")
    return X


def _inverse_factor(L: np.ndarray) -> np.ndarray:
    """Read-only inverse of the lower factor ``L``, exactly lower triangular."""
    inv_l = np.tril(_solve_lower(L, np.eye(L.shape[0])))
    inv_l.setflags(write=False)
    return inv_l


def _precision(inv_l: np.ndarray) -> np.ndarray:
    """Inverse of ``L @ L.T`` from the inverse factor ``inv_l``, symmetrised."""
    precision = inv_l.T @ inv_l
    return 0.5 * (precision + precision.T)


def _cholesky_factors(S: np.ndarray, name: str) -> tuple[np.ndarray, float]:
    """Lower factor and log-determinant of a matrix already checked and
    symmetrised, with the checks of :func:`spd_cholesky`."""
    p = S.shape[0]
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"{name} is not positive definite: {exc}") from None
    pivots = np.diag(L) ** 2
    threshold = p * np.finfo(np.float64).eps * np.diag(S).max()
    if np.any(pivots <= threshold):
        raise NotPositiveDefinite(
            f"{name} is numerically singular (pivot {pivots.min():.3e} "
            f"below threshold {threshold:.3e})"
        )
    cond_estimate = pivots.max() / pivots.min()
    if cond_estimate > _COND_WARN:
        log.warning("%s is ill-conditioned (pivot-ratio estimate %.3e); proceeding", name, cond_estimate)
    log_det = 2.0 * float(np.sum(np.log(np.diag(L))))
    return L, log_det


@dataclass(frozen=True)
class LocationScatter:
    """A location vector with an SPD scatter matrix and cached factors.

    Instances are immutable (arrays are marked read-only) and therefore
    safe to share across threads.  Build through :meth:`from_sigma` so the
    Cholesky factor and log-determinant stay consistent.
    """

    mu: np.ndarray
    sigma: np.ndarray
    chol: np.ndarray = field(repr=False)
    log_det: float

    @classmethod
    def from_sigma(cls, mu, sigma) -> "LocationScatter":
        mu = np.atleast_1d(np.array(mu, dtype=np.float64))
        if mu.ndim != 1:
            raise DimensionMismatch(f"mu must be 1-D, got ndim={mu.ndim}")
        if not np.all(np.isfinite(mu)):
            raise DataError("mu contains non-finite entries")
        sigma = _check_square_symmetric(sigma)
        L, log_det = _cholesky_factors(sigma, "sigma")
        if L.shape[0] != mu.shape[0]:
            raise DimensionMismatch(
                f"mu has length {mu.shape[0]} but sigma is {L.shape[0]}x{L.shape[0]}"
            )
        for arr in (mu, sigma, L):
            arr.setflags(write=False)
        return cls(mu=mu, sigma=sigma, chol=L, log_det=log_det)

    @property
    def p(self) -> int:
        return self.mu.shape[0]

    @cached_property
    def inv_chol(self) -> np.ndarray:
        """Inverse of ``chol``, computed on first read and read-only.
        Every distance whitens deviations through one product with it."""
        return _inverse_factor(self.chol)

    @cached_property
    def precision(self) -> np.ndarray:
        """Inverse of ``sigma``, computed on first read: the concentration
        steps, which build most instances, never read it."""
        precision = _precision(self.inv_chol)
        precision.setflags(write=False)
        return precision

    def squared_distances(self, X) -> np.ndarray:
        """Squared Mahalanobis distance of every row of ``X``."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.p:
            raise DimensionMismatch(f"rows have length {X.shape[1]}, expected {self.p}")
        dev = X - self.mu
        with np.errstate(invalid="ignore", over="ignore"):
            W = self.inv_chol @ dev.T
            d2 = np.einsum("ij,ij->j", W, W)
        # A non-finite deviation always yields a non-finite distance, so
        # the n x p check runs only when the n distances fail theirs.
        if not np.isfinite(d2).all() and not np.isfinite(dev).all():
            raise ValueError("array must not contain infs or NaNs")
        return d2

    def distances(self, X) -> np.ndarray:
        return np.sqrt(self.squared_distances(X))


def mahalanobis(x, estimate: LocationScatter) -> float:
    """Mahalanobis distance of a single point under ``estimate``."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DimensionMismatch(f"x must be 1-D, got ndim={x.ndim}")
    if x.shape[0] != estimate.p:
        raise DimensionMismatch(f"x has length {x.shape[0]}, expected {estimate.p}")
    return float(np.sqrt(estimate.squared_distances(x)[0]))


def chi2_quantile(dof: int, prob: float) -> float:
    """Quantile of the chi-square distribution with ``dof`` degrees of freedom.

    Computed through the inverse regularized incomplete gamma function,
    so any dimension is supported without tables.
    """
    if int(dof) != dof or dof < 1:
        raise DomainError(f"dof must be a positive integer, got {dof!r}")
    if not (0.0 < prob < 1.0):
        raise DomainError(f"prob must lie strictly inside (0, 1), got {prob!r}")
    from scipy import special

    return float(2.0 * special.gammaincinv(int(dof) / 2, prob))


def chi2_cdf(x: float, dof: int) -> float:
    """Distribution function of the chi-square distribution, zero below 0."""
    if int(dof) != dof or dof < 1:
        raise DomainError(f"dof must be a positive integer, got {dof!r}")
    if x < 0:
        return 0.0
    from scipy import special

    return float(special.chdtr(int(dof), x))


def mvn_sample(rng: np.random.Generator, estimate: LocationScatter, n: int) -> np.ndarray:
    """Draw ``n`` rows from N(mu, sigma) as ``mu + L z`` with iid standard normal z.

    Row ``i`` consumes the ``i``-th standard-normal draw, so the output is
    fully determined by the generator state.
    """
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    z = rng.standard_normal((int(n), estimate.p))
    return z @ estimate.chol.T + estimate.mu

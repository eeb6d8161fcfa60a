"""Numeric foundations shared by every estimator in the package.

Covers validated data matrices, a location/scatter pair with cached
Cholesky machinery and Mahalanobis distances, chi-square quantiles, and
seeded multivariate normal sampling with reproducible substreams.

The package needs numpy alone.  Distances whiten through one matrix
product with a cached inverse Cholesky factor, and the chi-square
quantile and distribution function are computed in Python floats with
``math``: the regularized incomplete gamma function from its power
series or its continued fraction, inverted by safeguarded Newton
steps.  They agree with ``scipy.stats.chi2`` to within 3e-13 relative;
their docstrings give the measured accuracy.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, DomainError, DataError, NotPositiveDefinite, NumericError

__all__ = [
    "LocationScatter",
    "as_data_matrix",
    "check_block_count",
    "check_fraction",
    "check_seed",
    "chi2_cdf",
    "chi2_quantile",
    "distinct",
    "median",
    "mvn_sample",
    "substream",
]

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


def _warn(name: str, message: str, *args) -> None:
    """Log a warning through the logger ``name``.  ``logging`` is imported
    at the first warning, so a run that has none never loads it."""
    import logging

    logging.getLogger(name).warning(message, *args, stacklevel=2)


def check_seed(seed) -> int:
    """``seed`` as an int; ``DomainError`` unless it is a non-negative integer."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def check_block_count(q) -> int:
    """``q`` as an int; ``DomainError`` unless it is a positive integer."""
    # A bool is a numbers.Real, but blocks=True is no block count.
    if isinstance(q, bool) or not isinstance(q, numbers.Real) or not float(q).is_integer() or q < 1:
        raise DomainError(f"q must be a positive integer, got {q!r}")
    return int(q)


def check_fraction(frac) -> None:
    """``DomainError`` unless the coverage fraction ``frac`` lies in [0.5, 1)."""
    if not (0.5 <= frac < 1.0):
        raise DomainError(f"coverage fraction must lie in [0.5, 1), got {frac!r}")


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent, reproducible generator for ``(seed, key...)``.

    The same ``(seed, key)`` pair always yields the same stream, and
    distinct keys yield statistically independent streams, so concurrent
    sub-fits can draw without coordinating.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key)))


def median(x: np.ndarray, axis: int, zero: float = 0.0) -> np.ndarray:
    """``np.median(x, axis)`` for finite ``x``, bit for bit, from one
    partition: the middle order statistic, or the mean of the two middle
    ones, without the NaN pass (which loads ``numpy.ma``).

    The middle values are added to ``zero``, as ``np.median``'s mean adds
    them to its identity ``+0.0``, which turns a ``-0.0`` median into
    ``+0.0``.  ``zero=-0.0`` changes no bit, so the median keeps the sign
    the partition gives it.
    """
    half = x.shape[axis] // 2
    if x.shape[axis] % 2:
        return zero + np.take(np.partition(x, half, axis=axis), half, axis=axis)
    part = np.partition(x, (half - 1, half), axis=axis)
    return (zero + np.take(part, half - 1, axis=axis) + np.take(part, half, axis=axis)) / 2


def distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` for a 1-D array without
    NaN, bit for bit, from the same sort but without the masked-array
    check (which loads ``numpy.ma``): the sorted distinct values, and the
    index among them of every entry."""
    order = np.argsort(values)
    ordered = values[order]
    first = np.empty(ordered.shape, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    inverse = np.empty(ordered.shape, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


def _mean_cov(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and covariance (divisor ``n - 1``) of the rows."""
    mu = rows.mean(axis=0)
    dev = rows - mu
    return mu, (dev.T @ dev) / (rows.shape[0] - 1)


def _check_square_symmetric(sigma) -> np.ndarray:
    S = np.asarray(sigma, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise DimensionMismatch(f"sigma must be square, got shape {S.shape}")
    if not np.all(np.isfinite(S)):
        raise DataError("sigma contains non-finite entries")
    scale = np.abs(S).max()
    tol = 1e-12 * max(scale, 1.0)
    if np.abs(S - S.T).max() > tol:
        raise DataError("sigma is not symmetric to within 1e-12 relative")
    return 0.5 * (S + S.T)


def _factor_stack(S: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
    """Lower Cholesky factors and log-determinants of a stack ``(K, p, p)``
    of matrices already checked and symmetrised.

    One LAPACK call per slice, the same as for a single matrix, so every
    slice gets the bits it would get alone.  Returns ``(L, log_det,
    failed)``: ``failed`` maps the index of each slice that does not
    factor, or has a pivot at or below ``p * machine_epsilon *
    max(diagonal)``, to its ``NotPositiveDefinite``, and those slices'
    entries of ``L`` and ``log_det`` are meaningless.  An
    ill-conditioned but factorizable slice goes through with a logged
    condition estimate.
    """
    K, p, _ = S.shape
    failed = {}
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        L = np.empty_like(S)
        for k in range(K):
            try:
                L[k] = np.linalg.cholesky(S[k])
            except np.linalg.LinAlgError as exc:
                failed[k] = NotPositiveDefinite(f"sigma is not positive definite: {exc}")
                L[k] = np.eye(p)
    diag = np.diagonal(L, axis1=1, axis2=2)
    pivots = diag ** 2
    smallest = pivots.min(axis=1)
    threshold = p * _EPS * np.diagonal(S, axis1=1, axis2=2).max(axis=1)
    singular = smallest <= threshold
    for k in np.flatnonzero(singular):
        failed.setdefault(int(k), NotPositiveDefinite(
            f"sigma is numerically singular (pivot {smallest[k]:.3e} "
            f"below threshold {threshold[k]:.3e})"
        ))
    # The pivots of a slice that passed are positive.
    cond_estimate = pivots.max(axis=1) / np.where(singular, 1.0, smallest)
    for k in np.flatnonzero(cond_estimate > _COND_WARN):
        if k not in failed:
            _warn(__name__, "sigma is ill-conditioned (pivot-ratio estimate %.3e); proceeding",
                 cond_estimate[k])
    return L, 2.0 * np.log(diag).sum(axis=1), failed


def _inverse_factors(L: np.ndarray) -> tuple[np.ndarray, dict]:
    """Inverses of a stack ``(K, p, p)`` of lower factors, exactly lower
    triangular, one LAPACK solve per slice.  ``failed`` maps the index of
    each slice whose solve fails or overflows to its ``NumericError``."""
    failed = {}
    try:
        inv = np.linalg.inv(L)  # LAPACK gesv against the identity
    except np.linalg.LinAlgError:
        inv = np.zeros_like(L)
        for k in range(L.shape[0]):
            try:
                inv[k] = np.linalg.inv(L[k])
            except np.linalg.LinAlgError as exc:
                failed[k] = NumericError(f"triangular solve failed: {exc}")
    if not np.isfinite(inv).all():
        for k in np.flatnonzero(~np.isfinite(inv).all(axis=(1, 2))):
            failed.setdefault(int(k), NumericError("triangular solve overflowed"))
    return np.tril(inv), failed


def _whitened_squared_norms(inv_chol: np.ndarray, dev: np.ndarray) -> np.ndarray:
    """Squared norms ``(K, m)`` of a stack of deviations ``(K, m, p)``
    whitened by the inverse factors ``(K, p, p)``: one matrix product per
    slice, so each slice gets the bits it would get alone."""
    W = inv_chol @ dev.transpose(0, 2, 1)
    return np.einsum("kij,kij->kj", W, W)


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
        L, log_det, failed = _factor_stack(sigma[None])
        if failed:
            raise failed[0]
        if sigma.shape[0] != mu.shape[0]:
            raise DimensionMismatch(
                f"mu has length {mu.shape[0]} but sigma is {sigma.shape[0]}x{sigma.shape[0]}"
            )
        for arr in (mu, sigma, L[0]):
            arr.setflags(write=False)
        return cls(mu=mu, sigma=sigma, chol=L[0], log_det=float(log_det[0]))

    @classmethod
    def _from_factors(cls, mu, sigma, chol, log_det, inv_chol) -> "LocationScatter":
        """An instance from factors the package formed itself (by
        :func:`_factor_stack` and :func:`_inverse_factors`), not checked again."""
        obj = cls(mu=mu, sigma=sigma, chol=chol, log_det=float(log_det))
        for arr in (mu, sigma, chol, inv_chol):
            arr.setflags(write=False)
        obj.__dict__["inv_chol"] = inv_chol  # the cached_property's slot
        return obj

    @property
    def p(self) -> int:
        return self.mu.shape[0]

    @cached_property
    def inv_chol(self) -> np.ndarray:
        """Inverse of ``chol``, computed on first read and read-only.
        Every distance whitens deviations through one product with it."""
        inv, failed = _inverse_factors(self.chol[None])
        if failed:
            raise failed[0]
        inv = inv[0]
        inv.setflags(write=False)
        return inv

    @cached_property
    def precision(self) -> np.ndarray:
        """Inverse of ``sigma``, computed on first read and symmetrised: the
        concentration steps, which build most instances, never read it."""
        precision = self.inv_chol.T @ self.inv_chol
        precision = 0.5 * (precision + precision.T)
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
        if dev.shape[0] == 1:
            # A one-row product runs as a matrix-vector BLAS call, which may
            # round differently from the matrix-matrix one of a batch.
            dev = np.repeat(dev, 2, axis=0)
        with np.errstate(invalid="ignore", over="ignore"):
            d2 = _whitened_squared_norms(self.inv_chol[None], dev[None])[0, : X.shape[0]]
        # A non-finite deviation always yields a non-finite distance, so
        # the n x p check runs only when the n distances fail theirs.
        if not np.isfinite(d2).all() and not np.isfinite(dev).all():
            raise ValueError("array must not contain infs or NaNs")
        return d2

    def distances(self, X) -> np.ndarray:
        return np.sqrt(self.squared_distances(X))


# Stirling-series coefficients B_2k / (2k (2k - 1)):
# ln Γ(a) = (a - 1/2) ln a - a + ln(2π)/2 + Σ_k c_k / a^(2k - 1).
# From a = 10 on, eight terms leave an error under 1e-16.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_EPS = 2.0 ** -52
_TINY = 1e-300
# Caps far above what any argument needs: the continued fraction takes
# about 700 terms at a = 5e5, and the quantile search at most 5 steps
# for dof 1-400.
_MAX_TERMS = 100_000
_MAX_STEPS = 200


def _stirling_correction(a: float) -> float:
    """``ln Γ(a) - ((a - 1/2) ln a - a + ln(2π)/2)``, from the series for
    large ``a``, where the difference would cancel."""
    if a < 10.0:
        return math.lgamma(a) - ((a - 0.5) * math.log(a) - a + _HALF_LOG_2PI)
    inv_a2 = 1.0 / (a * a)
    total = 0.0
    for c in reversed(_STIRLING):
        total = total * inv_a2 + c
    return total / a


def _log_gamma_tails(a: float, x: float) -> tuple[float, float, float]:
    """``ln P(a, x)``, ``ln Q(a, x)`` and ``ln(x^a e^-x / Γ(a))`` for
    ``a > 0`` and ``0 < x < inf``.

    ``P`` and ``Q`` are the regularized lower and upper incomplete gamma
    functions.  Below ``x = a + 1`` the power series gives ``P``; from
    there on a continued fraction (modified Lentz) gives ``Q``.  The
    other tail is one minus it, which costs at most one digit: the
    series tail is below 0.92 and the fraction tail below 1/2.  The
    factor ``x^a e^-x / Γ(a)`` is formed as
    ``sqrt(a / 2π) exp(-a (u - 1 - ln u) - stirling(a))`` with
    ``u = x / a``, so its exponent does not cancel when ``a`` is large.
    """
    v = (x - a) / a
    log_u = math.log1p(v) if v > -0.5 else math.log(x) - math.log(a)
    log_f = 0.5 * math.log(a / (2.0 * math.pi)) - a * (v - log_u) - _stirling_correction(a)
    if x < a + 1.0:
        # P = f/a (1 + x/(a+1) + x^2/((a+1)(a+2)) + ...); every term ratio is below 1.
        term = total = 1.0
        n = a
        while term > total * _EPS:
            n += 1.0
            term *= x / n
            total += term
        log_p = log_f + math.log(total / a)
        return log_p, math.log1p(-math.exp(log_p)), log_f
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > _TINY else _TINY)
        c = b + an / c
        c = c if abs(c) > _TINY else _TINY
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            break
    else:
        raise NumericError(f"incomplete gamma fraction did not converge at a={a!r}, x={x!r}")
    log_q = log_f + math.log(h)
    return math.log1p(-math.exp(log_q)), log_q, log_f


def _wilson_hilferty(a: float, log_tail: float, upper: bool) -> float:
    """Wilson-Hilferty guess for the gamma(a) quantile whose lower (or, if
    ``upper``, upper) tail has logarithm ``log_tail``, or 0 where the cube
    root goes negative.  The normal quantile is Abramowitz and Stegun
    26.2.23 (absolute error under 4.5e-4)."""
    t = math.sqrt(-2.0 * log_tail)
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))
    root = 1.0 - 1.0 / (9.0 * a) + (z if upper else -z) / (3.0 * math.sqrt(a))
    return a * root ** 3 if root > 0.0 else 0.0


def chi2_quantile(dof: int, prob: float) -> float:
    """Quantile of the chi-square distribution with ``dof`` degrees of freedom.

    With ``a = dof / 2`` the quantile is ``2x`` where ``P(a, x) = prob``
    for ``prob <= 1/2`` and ``Q(a, x) = 1 - prob`` above, so the tail that
    is solved for is the smaller one and its target is exact.  Newton
    steps act on the logarithm of that tail as a function of ``ln x``,
    which stays accurate for tiny probabilities, and start from the
    Wilson-Hilferty guess.  ``P(a, x) <= x^a / Γ(a + 1)`` and the bound
    ``Q(a, x) <= (e x / a)^a e^-x`` bracket the root; the bracket narrows
    after every step, and a step that would leave it becomes a geometric
    bisection.  The search stops after the first Newton step under 1e-10
    in ``ln x`` (at most five evaluations for dof 1-400).

    Accuracy, measured for dof 1-400 at probabilities from 1e-300 to
    1 - 1e-12: within 8e-14 relative of ``scipy.stats.chi2.ppf`` (SciPy
    1.17).  Against 50-digit mpmath the error is under 3e-15 from
    probability 1e-12 on (SciPy's reaches 2e-14) and under 5e-14 below,
    where ``ln prob`` is itself rounded (SciPy's: 4e-14).
    """
    if int(dof) != dof or dof < 1:
        raise DomainError(f"dof must be a positive integer, got {dof!r}")
    if not (0.0 < prob < 1.0):
        raise DomainError(f"prob must lie strictly inside (0, 1), got {prob!r}")
    a = int(dof) / 2
    prob = float(prob)
    upper = prob > 0.5
    log_target = math.log1p(-prob) if upper else math.log(prob)
    lo = math.exp((math.log(prob) + math.lgamma(a + 1.0)) / a)
    if lo == 0.0:
        return 0.0  # the half quantile lies within a factor 1 + 1e-300 of lo
    big = -math.log1p(-prob)
    hi = a + 2.0 * big + math.sqrt(2.0 * a * big)
    x = min(max(_wilson_hilferty(a, log_target, upper), lo), hi)
    for _ in range(_MAX_STEPS):
        log_p, log_q, log_f = _log_gamma_tails(a, x)
        log_tail = log_q if upper else log_p
        r = log_tail - log_target
        if (r > 0.0) == upper:
            lo = x
        else:
            hi = x
        # d ln(tail) / d ln x is +-x^a e^-x / (Γ(a) tail).
        step = r / math.exp(log_f - log_tail)
        x_next = x * math.exp(step if upper else -step)
        if abs(step) < 1e-10:
            return 2.0 * x_next
        x = x_next if lo < x_next < hi else math.sqrt(lo) * math.sqrt(hi)
    raise NumericError(f"chi-square quantile did not converge for dof={dof!r}, prob={prob!r}")


def chi2_cdf(x: float, dof: int) -> float:
    """Distribution function of the chi-square distribution, zero below 0.

    ``P(dof/2, x/2)``, the regularized lower incomplete gamma function:
    its power series below ``x/2 = dof/2 + 1``, one minus the continued
    fraction for ``Q`` above.  Accuracy, measured for dof 1-400 at the
    quantiles of probabilities from 1e-300 to 1 - 1e-12: within 2.6e-13
    relative of ``scipy.stats.chi2.cdf`` (SciPy 1.17).  Against 50-digit
    mpmath the error is under 8e-14 for values from 1e-12 up (SciPy's
    reaches 1.6e-13) and under 2.5e-13 below, where the exponent of the
    factor ``x^a e^-x / Γ(a)`` is large (SciPy's: 2e-13).
    """
    if int(dof) != dof or dof < 1:
        raise DomainError(f"dof must be a positive integer, got {dof!r}")
    half = 0.5 * float(x)
    if math.isnan(half):
        return half
    if half <= 0.0:  # also the smallest subnormal, whose half rounds to 0
        return 0.0
    if half == math.inf:
        return 1.0
    return math.exp(_log_gamma_tails(int(dof) / 2, half)[0])


def mvn_sample(rng: np.random.Generator, estimate: LocationScatter, n: int) -> np.ndarray:
    """Draw ``n`` rows from N(mu, sigma) as ``mu + L z`` with iid standard normal z.

    Row ``i`` consumes the ``i``-th standard-normal draw, so the output is
    fully determined by the generator state.
    """
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    z = rng.standard_normal((int(n), estimate.p))
    return z @ estimate.chol.T + estimate.mu

"""Deterministic minimum covariance determinant estimation on one data block.

The estimator runs concentration steps from two fixed robust starts (a
spatial-sign scatter and a tanh-correlation scatter, both rescaled along
their eigenvectors by MADs of the projected data), polishes each
converged subset by exchange descent (swap one inside row for one
outside row while the determinant strictly drops), and keeps the
h-subset with the smaller covariance determinant.  Rows are processed
in a canonical lexicographic order, which makes the result exactly
invariant under row permutations.  Distances and exchange ratios whiten
deviations through the cached inverse Cholesky factor of each estimate
(``LocationScatter.inv_chol``), one matrix product per pass.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import LocationScatter, _mean_cov, as_data_matrix, chi2_cdf, chi2_quantile
from .errors import (
    AllStartsDegenerate,
    DataError,
    DegenerateStart,
    DomainError,
    NumericError,
    TooFewInliers,
    TooFewObservations,
)
from .robust_scale import MAD_TO_SD

__all__ = [
    "REWEIGHT_QUANTILE",
    "RawEstimate",
    "c_step",
    "consistency_factor",
    "fit_mcd",
    "h_from_fraction",
    "initial_starts",
    "raw_from_subset",
    "reweight",
]

log = logging.getLogger(__name__)

# Trimming quantile of the one-step reweighting that follows a raw fit.
REWEIGHT_QUANTILE = 0.975

# Eigenvalues of an initial scatter are floored at this fraction of the
# largest one, which repairs rank-deficient starts.
_EIGEN_FLOOR = 1e-8

_MAX_CSTEPS = 100

# Exchange pairs scored per block in the polish; bounds its scratch memory.
_PAIR_CHUNK = 1 << 16

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class RawEstimate:
    """Raw MCD output: consistency-scaled estimate plus its h-subset.

    ``det_uncorrected`` is the determinant of the plain h-subset covariance
    (no consistency factor); concentration steps never increase it.
    """

    loc_scat: LocationScatter
    subset: np.ndarray = field(repr=False)
    det_uncorrected: float
    c_alpha: float

    def __post_init__(self):
        object.__setattr__(self, "subset", np.array(self.subset, dtype=np.intp))
        self.subset.setflags(write=False)

    @property
    def h(self) -> int:
        return self.subset.shape[0]

    @property
    def mu(self) -> np.ndarray:
        return self.loc_scat.mu

    @property
    def sigma(self) -> np.ndarray:
        return self.loc_scat.sigma


def h_from_fraction(n: int, p: int, frac: float) -> int:
    """Subset size for coverage fraction ``frac``: at least the breakdown
    floor ``(n + p + 1) // 2``, clamped strictly below ``n``."""
    if not (0.5 <= frac < 1.0):
        raise DomainError(f"coverage fraction must lie in [0.5, 1), got {frac!r}")
    if n <= p + 2:
        raise TooFewObservations(f"need n > p + 2 for a covariance fit, got n={n}, p={p}")
    h = max((n + p + 1) // 2, int(math.floor(frac * n + 1e-9)))
    return min(h, n - 1)


def consistency_factor(h: int, n: int, p: int) -> float:
    """Scale factor making the h-subset covariance consistent for normal data.

    Uses the trimmed-variance identity: the expected covariance of the
    central ``h/n`` mass of N(0, I_p) is ``F_{chi2,p+2}(q) / (h/n)`` times
    the truth, where ``q`` is the chi-square(p) quantile at ``h/n``.
    """
    if p < 1:
        raise DomainError(f"p must be positive, got {p}")
    if not (0 < h <= n):
        raise DomainError(f"need 0 < h <= n, got h={h}, n={n}")
    if h == n:
        return 1.0
    ratio = h / n
    q = chi2_quantile(p, ratio)
    return ratio / chi2_cdf(q, p + 2)


def _reweight_factor(p: int) -> float:
    q = chi2_quantile(p, REWEIGHT_QUANTILE)
    return REWEIGHT_QUANTILE / chi2_cdf(q, p + 2)


def raw_from_subset(Z, subset) -> RawEstimate:
    """Raw estimate from an explicit h-subset of rows of ``Z``."""
    Z = as_data_matrix(Z, name="Z")
    n, p = Z.shape
    subset = np.asarray(subset, dtype=np.intp)
    if subset.ndim != 1:
        raise DataError("subset must be a 1-D index array")
    h = subset.shape[0]
    if h < p + 1:
        raise TooFewObservations(f"subset of {h} rows cannot support a {p}-dimensional covariance")
    if np.unique(subset).shape[0] != h:
        raise DataError("subset contains duplicate row indices")
    if subset.min() < 0 or subset.max() >= n:
        raise DataError(f"subset indices must lie in [0, {n})")
    return _fit_subset(Z, np.sort(subset), consistency_factor(h, n, p))


def _fit_subset(Z: np.ndarray, subset: np.ndarray, c_alpha: float) -> RawEstimate:
    """:func:`raw_from_subset` for a sorted subset of distinct, in-range rows
    of a validated ``Z``, with its consistency factor already computed."""
    mu, cov = _mean_cov(Z[subset])
    loc_scat = LocationScatter.from_sigma(mu, c_alpha * cov)
    log_det_plain = loc_scat.log_det - Z.shape[1] * math.log(c_alpha)
    return RawEstimate(
        loc_scat=loc_scat,
        subset=subset,
        det_uncorrected=math.exp(log_det_plain),
        c_alpha=c_alpha,
    )


def _smallest_h(d2: np.ndarray, h: int) -> np.ndarray:
    """Sorted indices of the ``h`` smallest distances.

    Distance ties at rank ``h`` resolve to the lowest row indices, which
    keeps the subset deterministic: the result equals
    ``np.sort(np.argsort(d2, kind="stable")[:h])``, found by an O(n)
    selection instead of a full sort.
    """
    kth = np.partition(d2, h - 1)[h - 1]
    keep = d2 < kth
    ties = np.flatnonzero(d2 == kth)
    keep[ties[: h - np.count_nonzero(keep)]] = True
    return np.flatnonzero(keep)


def c_step(Z, current: RawEstimate) -> RawEstimate:
    """One concentration step: refit on the h rows closest to ``current``."""
    Z = as_data_matrix(Z, name="Z")
    d2 = current.loc_scat.squared_distances(Z)
    return raw_from_subset(Z, _smallest_h(d2, current.h))


def _rescale_shape(Z: np.ndarray, shape: np.ndarray) -> LocationScatter:
    """Turn a raw shape matrix into a usable start.

    Replaces the eigenvalue structure with squared MADs of the data
    projected on the shape's eigenvectors, floors tiny eigenvalues, and
    places the location at the back-transformed coordinate-wise median of
    the sphered data.
    """
    S = np.asarray(shape, dtype=np.float64)
    if not np.all(np.isfinite(S)):
        raise DegenerateStart("initial shape matrix has non-finite entries")
    S = 0.5 * (S + S.T)
    _, vecs = np.linalg.eigh(S)
    proj = Z @ vecs
    med = np.median(proj, axis=0)
    lam = (MAD_TO_SD * np.median(np.abs(proj - med), axis=0)) ** 2
    if not np.all(np.isfinite(lam)):
        raise DegenerateStart("projected scales are not finite")
    lam_max = lam.max()
    if lam_max <= 0.0:
        raise DegenerateStart("all projected scales are zero; start is not repairable")
    lam = np.maximum(lam, _EIGEN_FLOOR * lam_max)
    sigma = (vecs * lam) @ vecs.T
    shell = LocationScatter.from_sigma(np.zeros(Z.shape[1]), sigma)
    sphered = shell.inv_chol @ Z.T
    mu = shell.chol @ np.median(sphered, axis=1)
    return LocationScatter.from_sigma(mu, sigma)


def _start_spatial_sign(Z: np.ndarray) -> LocationScatter:
    offset = np.median(Z, axis=0)
    dev = Z - offset
    norms = np.sqrt(np.einsum("ij,ij->i", dev, dev))
    nz = norms > 0.0
    signs = np.zeros_like(dev)
    signs[nz] = dev[nz] / norms[nz, None]
    shape = (signs.T @ signs) / Z.shape[0]
    return _rescale_shape(Z, shape)


def _start_tanh_corr(Z: np.ndarray) -> LocationScatter:
    Y = np.tanh(Z)
    with np.errstate(invalid="ignore", divide="ignore"):
        shape = np.corrcoef(Y, rowvar=False)
    shape = np.atleast_2d(shape)
    if not np.all(np.isfinite(shape)):
        raise DegenerateStart("tanh correlation is undefined (constant column)")
    return _rescale_shape(Z, shape)


def initial_starts(Z) -> list[LocationScatter]:
    """The two deterministic robust starts used to seed concentration steps."""
    Z = as_data_matrix(Z, name="Z")
    return [_start_spatial_sign(Z), _start_tanh_corr(Z)]


def _concentrate(Z: np.ndarray, start: LocationScatter, h: int, max_steps: int) -> RawEstimate:
    n, p = Z.shape
    c_alpha = consistency_factor(h, n, p)
    current = _fit_subset(Z, _smallest_h(start.squared_distances(Z), h), c_alpha)
    for _ in range(max_steps):
        subset = _smallest_h(current.loc_scat.squared_distances(Z), h)
        if np.array_equal(subset, current.subset):
            return current  # converged: a refit would reproduce ``current``
        refined = _fit_subset(Z, subset, c_alpha)
        if refined.det_uncorrected > current.det_uncorrected * (1.0 + 1e-9):
            raise NumericError("concentration step increased the determinant")
        current = refined
    log.warning(
        "concentration steps did not converge within %d steps (n=%d, h=%d); "
        "continuing from the last subset",
        max_steps, n, h,
    )
    return current


def _exchange_ratios(
    h: int, W_in: np.ndarray, W_out: np.ndarray, q_in: np.ndarray, q_out: np.ndarray
) -> np.ndarray:
    """Determinant ratio of every (outside row, inside row) exchange.

    Entry ``[b, a]`` is det(S') / det(S) after inside row ``a`` leaves
    and outside row ``b`` enters, where ``W_*`` hold the rows' whitened
    deviations and ``q_*`` their squared norms: det(I2 + C M) with
    M = [[q_bb, q_ba], [q_ba, q_aa]] and C = [[1 - 1/h, 1/h], [1/h, -(1 + 1/h)]].
    """
    c1, c2, c3 = 1.0 - 1.0 / h, 1.0 / h, -(1.0 + 1.0 / h)
    q_cross = W_out @ W_in.T
    a00 = 1.0 + c1 * q_out[:, None] + c2 * q_cross
    a01 = c1 * q_cross + c2 * q_in[None, :]
    a10 = c2 * q_out[:, None] + c3 * q_cross
    a11 = 1.0 + c2 * q_cross + c3 * q_in[None, :]
    return a00 * a11 - a01 * a10


def _best_exchange(Z: np.ndarray, current: RawEstimate) -> tuple[float, int, int]:
    """The exchange with the smallest determinant ratio, as ``(ratio, row,
    slot)``: row ``row`` of ``Z`` replaces ``current.subset[slot]``.

    Ties go to the lowest ``b * h + slot``, ``b`` being the rank of
    ``row`` among the outside rows.  When no exchange gets below the
    stopping level ``1 - 1e-12``, ``ratio`` is only known to be at or
    above it.

    With ``x = q_ba`` the ratio expands to
    ``(1 + c1 qo)(1 + c3 qi) - qi qo / h^2 + x^2 + 2x / h``, and since
    ``x^2 + 2x / h >= -1/h^2`` it is at least
    ``1 - 1/h^2 + c3 qi + (c1 - qi) qo``.  That bound falls as ``qi``
    grows, so the inside row with the largest ``qi`` bounds every pair of
    an outside row.  Only outside rows whose bound reaches the ratio of a
    known pair (or the stopping level) are scored, against all inside
    rows, in chunks of about ``_PAIR_CHUNK`` pairs.  The margin covers
    the rounding of both evaluations, so a skipped pair cannot hold the
    minimum.
    """
    n = Z.shape[0]
    inside = current.subset
    h = inside.shape[0]
    mask = np.zeros(n, dtype=bool)
    mask[inside] = True
    outside = np.flatnonzero(~mask)
    # Whitened deviations: W @ W.T gives deviations' quadratic forms
    # under the plain h-subset scatter (h - 1) * cov = sigma * (h-1)/c.
    dev = Z - current.loc_scat.mu
    W = dev @ current.loc_scat.inv_chol.T
    W *= math.sqrt(current.c_alpha / (h - 1))
    W_in, W_out = W[inside], W[outside]
    q_in = np.einsum("ij,ij->i", W_in, W_in)
    q_out = np.einsum("ij,ij->i", W_out, W_out)
    a_top, b_low = int(np.argmax(q_in)), int(np.argmin(q_out))
    top = q_in[a_top]
    # Evaluating a ratio rounds it by under 80 eps ((1 + qi^.5)(1 + qo^.5))^3,
    # as |x| <= (qi qo)^.5; the margin allows three times that.
    margin = 1e-9 + 256.0 * _EPS * ((1.0 + math.sqrt(top)) * (1.0 + np.sqrt(q_out))) ** 3
    known = _exchange_ratios(h, W_in[[a_top]], W_out[[b_low]], q_in[[a_top]], q_out[[b_low]])
    cap = min(float(known[0, 0]) + margin[b_low], 1.0 - 1e-12)
    bound = 1.0 - 1.0 / (h * h) - (1.0 + 1.0 / h) * top + (1.0 - 1.0 / h - top) * q_out
    rows = np.flatnonzero(bound <= cap + margin)
    if rows.size == 0:
        return math.inf, -1, -1
    if rows.size == 1 and outside.shape[0] > 1:
        # A one-row product runs as a matrix-vector BLAS call, which may
        # round differently from a matrix-matrix one; score a neighbour too.
        b = int(rows[0])
        rows = np.array([b - 1, b] if b + 1 == outside.shape[0] else [b, b + 1])
    best = (math.inf, -1, -1)
    step = max(2, _PAIR_CHUNK // h)
    for chunk in np.array_split(rows, max(1, rows.size // step)):
        ratio = _exchange_ratios(h, W_in, W_out[chunk], q_in, q_out[chunk])
        b_pos, slot = divmod(int(np.argmin(ratio)), h)
        if ratio[b_pos, slot] < best[0]:
            best = (float(ratio[b_pos, slot]), int(outside[chunk[b_pos]]), slot)
    return best


def _swap_polish(Z: np.ndarray, est: RawEstimate, max_sweeps: int = _MAX_CSTEPS) -> RawEstimate:
    """Exchange descent from a concentration fixed point.

    Concentration steps stop at subsets that reproduce themselves under
    distance ranking, which on small blocks is a coarse notion of local
    optimality.  This pass keeps exchanging one subset row for one
    outside row as long as the determinant strictly decreases, so the
    returned subset is also optimal under single exchanges.  Each sweep
    applies the best exchange, found exactly by :func:`_best_exchange`
    from a rank-two determinant-ratio identity; with ``k`` outside rows
    left after its bound, a sweep costs O(n p^2 + k h) time and
    O(n p + max(_PAIR_CHUNK, h)) memory.
    """
    if est.h >= Z.shape[0]:
        return est
    current = est
    for _ in range(max_sweeps):
        ratio, row, slot = _best_exchange(Z, current)
        if ratio >= 1.0 - 1e-12:
            return current
        swapped = current.subset.copy()
        swapped[slot] = row
        try:
            refined = _fit_subset(Z, np.sort(swapped), current.c_alpha)
        except NumericError as exc:
            log.warning("exchange polish stopped early: refit failed (%s)", exc)
            return current
        if refined.det_uncorrected >= current.det_uncorrected:
            return current
        current = refined
    log.warning(
        "exchange polish did not converge within %d sweeps (n=%d, h=%d); "
        "keeping the last subset",
        max_sweeps, Z.shape[0], current.h,
    )
    return current


def fit_mcd(Z, h: int, *, max_csteps: int = _MAX_CSTEPS) -> RawEstimate:
    """Deterministic MCD fit of one data block.

    Parameters
    ----------
    Z : array, shape (n, p)
        Data block; needs ``n > 2p``.
    h : int
        Subset size, typically from :func:`h_from_fraction`.

    Returns
    -------
    RawEstimate
        Best of the two starts after concentration to a fixed point (or
        ``max_csteps`` steps) plus exchange polishing.  The returned
        subset refers to rows of ``Z`` in the caller's ordering, while
        the estimate itself is computed in canonical row order, so
        permuting the rows of ``Z`` reproduces the identical estimate.
    """
    Z = as_data_matrix(Z, name="Z")
    n, p = Z.shape
    if n <= 2 * p:
        raise TooFewObservations(f"need n > 2p, got n={n}, p={p}")
    if not (p + 1 <= h < n):
        raise DomainError(f"h must satisfy p + 1 <= h < n, got h={h} for n={n}, p={p}")
    order = _canonical_order(Z)
    best = _fit_canonical(Z[order], h, max_csteps)
    return replace(best, subset=np.sort(order[best.subset]))


def _canonical_order(Z: np.ndarray) -> np.ndarray:
    """Row order that sorts ``Z`` lexicographically, first column first.
    Fitting rows in this order makes every accumulation independent of
    the caller's row order, bit for bit."""
    return np.lexsort(Z.T[::-1])


def _fit_canonical(Zc: np.ndarray, h: int, max_csteps: int = _MAX_CSTEPS) -> RawEstimate:
    """:func:`fit_mcd` for a validated block whose rows are already in
    canonical order (:func:`_canonical_order` is the identity) and a
    valid ``h``; the returned subset indexes the rows of ``Zc``."""
    best: RawEstimate | None = None
    for builder in (_start_spatial_sign, _start_tanh_corr):
        try:
            start = builder(Zc)
        except DegenerateStart:
            continue
        candidate = _swap_polish(Zc, _concentrate(Zc, start, h, max_csteps))
        if best is None or candidate.det_uncorrected < best.det_uncorrected:
            best = candidate
    if best is None:
        raise AllStartsDegenerate("both initial scatter estimates are degenerate")
    return best


def reweight(Z, raw) -> tuple[LocationScatter, np.ndarray]:
    """One-step reweighting of a raw estimate.

    Flags row ``i`` as an inlier (weight 1) when its squared robust
    distance under ``raw`` is at most the chi-square 0.975 quantile, then
    returns the classical mean and covariance of the inliers with the
    matching consistency factor applied, plus the 0/1 weight vector.
    """
    Z = as_data_matrix(Z, name="Z")
    n, p = Z.shape
    loc_scat = raw.loc_scat if hasattr(raw, "loc_scat") else raw
    d2 = loc_scat.squared_distances(Z)
    weights = d2 <= chi2_quantile(p, REWEIGHT_QUANTILE)
    kept = int(weights.sum())
    if kept <= p:
        raise TooFewInliers(f"reweighting kept {kept} rows, need more than p={p}")
    mu, cov = _mean_cov(Z[weights])
    refined = LocationScatter.from_sigma(mu, _reweight_factor(p) * cov)
    return refined, weights

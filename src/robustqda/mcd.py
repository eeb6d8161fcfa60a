"""Deterministic minimum covariance determinant estimation on data blocks.

The estimator runs concentration steps from two fixed robust starts (a
spatial-sign scatter and a tanh-correlation scatter, both rescaled along
their eigenvectors by MADs of the projected data), polishes each
converged subset by exchange descent (swap one inside row for one
outside row while the determinant strictly drops), and keeps the
h-subset with the smaller covariance determinant.  Rows are processed
in a canonical lexicographic order, which makes the result exactly
invariant under row permutations.

Each (block, start) pair is a candidate.  The candidates of one call
that share a block size are fitted together as a stack ``(K, m, p)`` in
row layout: the starts, every concentration step and every polish sweep
run as one numpy pass over the candidates still active, while each
candidate keeps its own convergence, warnings and failures.  One record,
:class:`_Fits`, holds the stack's fits, h-subsets, determinants and
errors.  A candidate whose start is degenerate goes through the start's
passes like the others and ends with its ``DegenerateStart``.  Stacked
``matmul`` and ``linalg`` calls make one BLAS or LAPACK call per slice,
and means and cross-products reduce along the row axis, so a candidate
gets the same bits in any stack as alone.  Only the exchange search's
pruned pair scoring (:func:`_best_exchange`) loops over candidates.  A
stack holds at most ``_STACK_ROWS`` rows, so memory stays bounded in the
block size; a larger candidate is a stack of its own.  Every refit goes
through :func:`_refit`, which forms the inverse Cholesky factor once;
distances (``core._whitened_squared_norms``, shared with
:meth:`LocationScatter.squared_distances`) and exchange ratios whiten
deviations through it, one matrix product per pass.

:func:`fit_mcd` fits one block through the same stack, and
:func:`initial_starts`, :func:`raw_from_subset` and :func:`c_step` take
its steps one at a time.  No command or exported function reaches
them, so they are not exported: they are the tests' reference path,
and ``bench/tracing.py`` hooks ``fit_mcd``, ``c_step`` and
``raw_from_subset`` by name.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    LocationScatter,
    _factor_stack,
    _inverse_factors,
    _mean_cov,
    _warn,
    _whitened_squared_norms,
    as_data_matrix,
    check_fraction,
    chi2_cdf,
    chi2_quantile,
    distinct,
    median,
)
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
    "consistency_factor",
    "h_from_fraction",
    "reweight",
]

# Trimming quantile of the one-step reweighting that follows a raw fit.
REWEIGHT_QUANTILE = 0.975

# Eigenvalues of an initial scatter are floored at this fraction of the
# largest one, which repairs rank-deficient starts.
_EIGEN_FLOOR = 1e-8

# Concentration steps and exchange-polish sweeps a candidate may take; one
# still moving after them keeps its last subset, with a warning.
_MAX_CSTEPS = 100
_MAX_SWEEPS = 100

# Rows of candidate data fitted as one stack; bounds a stack's memory.  A
# candidate with more rows is a stack of its own.
_STACK_ROWS = 1 << 15

# Exchange pairs scored per candidate in the polish; bounds its scratch memory.
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
    check_fraction(frac)
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
    if distinct(subset)[0].shape[0] != h:
        raise DataError("subset contains duplicate row indices")
    if subset.min() < 0 or subset.max() >= n:
        raise DataError(f"subset indices must lie in [0, {n})")
    c_alpha = consistency_factor(h, n, p)
    fits = _refit(Z[None], np.zeros(1, dtype=np.intp), np.sort(subset)[None], c_alpha)
    if fits.error[0] is not None:
        raise fits.error[0]
    return RawEstimate(_loc_scat(fits, 0), fits.subset[0], float(fits.det[0]), c_alpha)


@dataclass
class _Fits:
    """Location/scatter fits of a stack of candidates, one per row of each
    array: the fit, its h-subset (indices into the candidate's rows) with
    the subset's uncorrected determinant (both None at the starts), and
    ``error[k]``, the exception that ended fit ``k``, or None."""

    mu: np.ndarray
    sigma: np.ndarray
    chol: np.ndarray
    inv_chol: np.ndarray
    log_det: np.ndarray
    subset: np.ndarray | None
    det: np.ndarray | None
    error: list

    def live(self) -> np.ndarray:
        """Indices of the fits that did not fail."""
        return np.array([k for k, exc in enumerate(self.error) if exc is None], dtype=np.intp)

    def take(self, idx: np.ndarray, fits: _Fits, sel: np.ndarray) -> None:
        """Take fits ``sel`` of ``fits`` as the fits ``idx``."""
        for name in ("mu", "sigma", "chol", "inv_chol", "log_det", "subset", "det"):
            getattr(self, name)[idx] = getattr(fits, name)[sel]


def _factor(mu: np.ndarray, sigma: np.ndarray) -> _Fits:
    """Fits of a stack of symmetric scatters the package formed itself, so
    not checked again: Cholesky factors, log-determinants and inverse
    factors, with no subset yet."""
    chol, log_det, failed = _factor_stack(sigma)
    inv_chol, inv_failed = _inverse_factors(chol)
    error = [failed.get(k, inv_failed.get(k)) for k in range(len(log_det))]
    return _Fits(mu, sigma, chol, inv_chol, log_det, None, None, error)


def _refit(Z: np.ndarray, cand: np.ndarray, rows: np.ndarray, c_alpha: float) -> _Fits:
    """Raw fits of the row sets ``rows`` ``(K, h)``, row ``j`` indexing the
    rows of candidate ``Z[cand[j]]``, with consistency factor ``c_alpha``.

    Every caller refits through here: gather, mean and cross-product
    along the row axis (the bits of one row set fitted alone), then
    :func:`_factor`.
    """
    _, m, p = Z.shape
    X = np.take(Z.reshape(-1, p), rows + m * cand[:, None], axis=0)
    mu = X.mean(axis=1)
    dev = X - mu[:, None, :]
    fits = _factor(mu, c_alpha * ((dev.transpose(0, 2, 1) @ dev) / (rows.shape[1] - 1)))
    fits.subset = rows
    fits.det = np.array([math.exp(v) for v in (fits.log_det - p * math.log(c_alpha)).tolist()])
    return fits


def _loc_scat(fits: _Fits, k: int) -> LocationScatter:
    """Fit ``k`` of a stack as a read-only :class:`LocationScatter` with
    its own arrays."""
    return LocationScatter._from_factors(
        fits.mu[k].copy(), fits.sigma[k].copy(), fits.chol[k].copy(), fits.log_det[k],
        fits.inv_chol[k].copy(),
    )


def _smallest_h(d2: np.ndarray, h: int) -> np.ndarray:
    """Indices of the ``h`` smallest distances, sorted, in each row.

    For a ``(K, m)`` stack the result is ``(K, h)`` indices into the
    rows of ``d2``; for a single row, the ``h`` indices.  Distance ties at
    rank ``h`` resolve to the lowest row indices, which keeps the subset
    deterministic: each row equals ``np.sort(np.argsort(row,
    kind="stable")[:h])``, found by an O(m) selection instead of a full
    sort.  Only a row with more ties at rank ``h`` than places left takes
    a second pass.
    """
    rows = np.atleast_2d(d2)
    kth = np.partition(rows, h - 1, axis=1)[:, h - 1 : h]
    keep = rows <= kth
    for k in np.flatnonzero(np.count_nonzero(keep, axis=1) > h):
        less = rows[k] < kth[k]
        ties = np.flatnonzero(rows[k] == kth[k])
        less[ties[: h - np.count_nonzero(less)]] = True
        keep[k] = less
    picked = np.nonzero(keep)[1].reshape(-1, h)
    return picked if d2.ndim == 2 else picked[0]


def c_step(Z, current: RawEstimate) -> RawEstimate:
    """One concentration step: refit on the h rows closest to ``current``."""
    Z = as_data_matrix(Z, name="Z")
    d2 = current.loc_scat.squared_distances(Z)
    return raw_from_subset(Z, _smallest_h(d2, current.h))


def _start(Z: np.ndarray, kinds: np.ndarray) -> _Fits:
    """Fits of a stack of candidates at their starts: kind 0 takes the
    spatial-sign start and kind 1 the tanh-correlation start of its rows.

    Each start's shape matrix is rescaled along its eigenvectors by squared
    MADs of the projected data, tiny eigenvalues are floored, and the
    location is the back-transformed coordinate-wise median of the data
    sphered by that scatter.  A candidate whose shape is not finite goes
    on with an identity shape, and one whose scales are all zero or not
    finite with unit scales; each ends with the first ``DegenerateStart``
    it got.
    """
    K, m, p = Z.shape
    shape = np.empty((K, p, p))
    for kind, build in enumerate((_sign_shapes, _tanh_shapes)):
        idx = np.flatnonzero(kinds == kind)
        if idx.size:
            shape[idx] = build(Z if idx.size == K else Z[idx])
    error = [None] * K
    bad = ~np.isfinite(shape).all(axis=(1, 2))
    for k in np.flatnonzero(bad):
        error[k] = DegenerateStart(
            "tanh correlation is undefined (constant column)" if kinds[k]
            else "initial shape matrix has non-finite entries"
        )
    shape[bad] = np.eye(p)
    _, vecs = np.linalg.eigh(0.5 * (shape + shape.transpose(0, 2, 1)))
    proj = Z @ vecs
    med = median(proj, 1, -0.0)
    lam = (MAD_TO_SD * median(np.abs(proj - med[:, None, :]), 1, -0.0)) ** 2
    finite = np.isfinite(lam).all(axis=1)
    lam_max = np.where(finite, lam.max(axis=1), 0.0)
    flat = lam_max <= 0.0
    for k in np.flatnonzero(flat):
        error[k] = error[k] or DegenerateStart(
            "all projected scales are zero; start is not repairable" if finite[k]
            else "projected scales are not finite"
        )
    lam[flat], lam_max[flat] = 1.0, 1.0
    lam = np.maximum(lam, _EIGEN_FLOOR * lam_max[:, None])
    sigma = (vecs * lam[:, None, :]) @ vecs.transpose(0, 2, 1)
    fits = _factor(None, 0.5 * (sigma + sigma.transpose(0, 2, 1)))
    sphered = fits.inv_chol @ Z.transpose(0, 2, 1)
    fits.mu = (fits.chol @ median(sphered, 2, -0.0)[:, :, None])[:, :, 0]
    fits.error = [first or exc for first, exc in zip(error, fits.error)]
    return fits


def _sign_shapes(Z: np.ndarray) -> np.ndarray:
    """Spatial-sign shape matrices of a stack: the mean outer product of
    the unit deviations from the coordinate-wise median."""
    dev = Z - median(Z, 1, -0.0)[:, None, :]
    norms = np.sqrt(np.einsum("kij,kij->ki", dev, dev))
    nz = norms > 0.0
    signs = np.zeros_like(dev)
    signs[nz] = dev[nz] / norms[nz, None]
    return (signs.transpose(0, 2, 1) @ signs) / Z.shape[1]


def _tanh_shapes(Z: np.ndarray) -> np.ndarray:
    """Correlation matrices of ``tanh`` of a stack, with the arithmetic of
    ``np.corrcoef(np.tanh(Z[k]), rowvar=False)`` for every slice; a
    constant column gives non-finite entries."""
    Y = np.tanh(Z)
    Y -= Y.mean(axis=1)[:, None, :]
    c = Y.transpose(0, 2, 1) @ Y
    c *= np.true_divide(1, Z.shape[1] - 1)
    with np.errstate(invalid="ignore", divide="ignore"):
        if Z.shape[2] == 1:
            return c / c
        stddev = np.sqrt(np.diagonal(c, axis1=1, axis2=2))
        c /= stddev[:, :, None]
        c /= stddev[:, None, :]
    return np.clip(c, -1, 1, out=c)


def initial_starts(Z) -> list[LocationScatter]:
    """The two deterministic robust starts used to seed concentration steps."""
    Z = as_data_matrix(Z, name="Z")
    st = _start(np.stack([Z, Z]), np.arange(2))
    for exc in filter(None, st.error):
        raise exc
    return [_loc_scat(st, k) for k in range(2)]


def _keep(act: np.ndarray, Za: np.ndarray, stay: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The active candidates ``act`` and their rows ``Za`` cut to the
    ascending positions ``stay``; the rows are copied only when some go."""
    return act[stay], Za if stay.size == act.size else Za[stay]


def _concentrate(Z: np.ndarray, st: _Fits, h: int, c_alpha: float) -> None:
    """Concentration steps for every live fit of ``st``, of the candidates'
    rows ``Z``, in lockstep.

    The first pass refits on the ``h`` rows closest to the start; each
    later pass re-selects, and a candidate whose subset reproduces itself
    has converged (a refit would reproduce its fit).  A candidate whose
    refit fails or whose determinant rises ends with that error; one still
    moving after ``_MAX_CSTEPS`` passes keeps its last subset, with a
    warning.
    """
    K, m, _ = Z.shape
    st.subset, st.det = np.full((K, h), -1, dtype=np.intp), np.full(K, math.inf)
    act = st.live()
    Za = Z if act.size == K else Z[act]
    for _ in range(_MAX_CSTEPS + 1):
        if not act.size:
            break
        picked = _smallest_h(_whitened_squared_norms(st.inv_chol[act], Za - st.mu[act][:, None, :]), h)
        moved = np.flatnonzero((picked != st.subset[act]).any(axis=1))
        if not moved.size:
            act = act[:0]
            break
        idx = act[moved]
        fits = _refit(Za, moved, picked[moved], c_alpha)
        for j in np.flatnonzero(fits.det > st.det[idx] * (1.0 + 1e-9)):
            fits.error[j] = fits.error[j] or NumericError("concentration step increased the determinant")
        for j, exc in enumerate(fits.error):
            st.error[idx[j]] = exc
        ok = fits.live()
        st.take(idx[ok], fits, ok)
        act, Za = _keep(act, Za, moved[ok])
    for k in act:
        _warn(
            __name__,
            "concentration steps did not converge within %d steps (n=%d, h=%d); "
            "continuing from the last subset",
            _MAX_CSTEPS, m, h,
        )


def _exchange_ratios(
    h: int, q_cross: np.ndarray, q_in: np.ndarray, q_out: np.ndarray
) -> np.ndarray:
    """Determinant ratios det(S') / det(S) of exchanges in which an inside
    row ``a`` leaves and an outside row ``b`` enters: det(I2 + C M) with
    M = [[q_bb, q_ba], [q_ba, q_aa]] and C = [[1 - 1/h, 1/h], [1/h, -(1 + 1/h)]],
    from the rows' whitened cross products ``q_cross`` and squared norms
    ``q_in`` and ``q_out``, shaped to broadcast against ``q_cross``.
    """
    c1, c2, c3 = 1.0 - 1.0 / h, 1.0 / h, -(1.0 + 1.0 / h)
    a00 = 1.0 + c1 * q_out + c2 * q_cross
    a01 = c1 * q_cross + c2 * q_in
    a10 = c2 * q_out + c3 * q_cross
    a11 = 1.0 + c2 * q_cross + c3 * q_in
    return a00 * a11 - a01 * a10


def _exchange_rows(
    W_in: np.ndarray, W_out: np.ndarray, q_in: np.ndarray, q_out: np.ndarray
) -> np.ndarray:
    """The outside rows whose exchanges :func:`_best_exchange` scores, as
    a mask ``(K, n - h)`` over a stack of candidates.

    ``W_in`` ``(K, h, p)`` and ``W_out`` hold the whitened deviations of
    the inside and outside rows, scaled so that ``W @ W.T`` gives their
    quadratic forms under the plain h-subset scatter, and ``q_*`` their
    squared norms.  With ``x = q_ba`` a ratio expands to
    ``(1 + c1 qo)(1 + c3 qi) - qi qo / h^2 + x^2 + 2x / h``, and since
    ``x^2 + 2x / h >= -1/h^2`` it is at least
    ``1 - 1/h^2 + c3 qi + (c1 - qi) qo``.  That bound falls as ``qi``
    grows, so the inside row with the largest ``qi`` bounds every pair of
    an outside row.  An outside row is scored when its bound reaches the
    ratio of a known pair (that inside row and the outside row with the
    smallest ``qo``) or the stopping level ``1 - 1e-12``.  The margin
    covers the rounding of both evaluations, so a skipped pair cannot hold
    the minimum.
    """
    K, h = q_in.shape
    at = np.arange(K)
    a_top, b_low = np.argmax(q_in, axis=1), np.argmin(q_out, axis=1)
    top = q_in[at, a_top][:, None]
    # Evaluating a ratio rounds it by under 80 eps ((1 + qi^.5)(1 + qo^.5))^3,
    # as |x| <= (qi qo)^.5; the margin allows three times that.
    margin = 1e-9 + 256.0 * _EPS * ((1.0 + np.sqrt(top)) * (1.0 + np.sqrt(q_out))) ** 3
    # Each known pair's product has the layout of a chunk's one-row product.
    q_cross = W_out[at, b_low].reshape(K, 1, -1) @ W_in[at, a_top].reshape(K, 1, -1).transpose(0, 2, 1)
    known = _exchange_ratios(h, q_cross[:, 0, 0], top[:, 0], q_out[at, b_low])
    cap = np.minimum(known + margin[at, b_low], 1.0 - 1e-12)
    bound = 1.0 - 1.0 / (h * h) - (1.0 + 1.0 / h) * top + (1.0 - 1.0 / h - top) * q_out
    return bound <= cap[:, None] + margin


def _best_exchange(
    W_in: np.ndarray, W_out: np.ndarray, q_in: np.ndarray, q_out: np.ndarray, scored: np.ndarray
) -> tuple[float, int, int]:
    """The exchange with the smallest determinant ratio, as ``(ratio, b,
    slot)``: outside row ``b`` replaces inside row ``slot``.

    One candidate's rows and norms as in :func:`_exchange_rows`, which
    gives the mask ``scored`` of the outside rows to score; they are
    scored against all inside rows in chunks of about ``_PAIR_CHUNK``
    pairs.  Ties go to the lowest ``b * h + slot``.  When no exchange gets
    below the stopping level ``1 - 1e-12``, ``ratio`` is only known to be
    at or above it.
    """
    h = W_in.shape[0]
    rows = np.flatnonzero(scored)
    if rows.size == 0:
        return math.inf, -1, -1
    if rows.size == 1 and W_out.shape[0] > 1:
        # A one-row product runs as a matrix-vector BLAS call, which may
        # round differently from a matrix-matrix one; score a neighbour too.
        b = int(rows[0])
        rows = np.array([b - 1, b] if b + 1 == W_out.shape[0] else [b, b + 1])
    best = (math.inf, -1, -1)
    step = max(2, _PAIR_CHUNK // h)
    chunks = [rows] if rows.size < 2 * step else np.array_split(rows, rows.size // step)
    for chunk in chunks:
        q_cross = np.take(W_out, chunk, axis=0) @ W_in.T
        ratio = _exchange_ratios(h, q_cross, q_in[None, :], q_out[chunk, None])
        b_pos, slot = divmod(int(np.argmin(ratio)), h)
        if ratio[b_pos, slot] < best[0]:
            best = (float(ratio[b_pos, slot]), int(chunk[b_pos]), slot)
    return best


def _polish(Z: np.ndarray, st: _Fits, c_alpha: float) -> None:
    """Exchange descent from the concentration fixed points of ``st``, of
    the candidates' rows ``Z``, in lockstep.

    Concentration steps stop at subsets that reproduce themselves under
    distance ranking, which on small blocks is a coarse notion of local
    optimality.  Each sweep whitens every live candidate's rows in one
    pass, prunes the pairs with :func:`_exchange_rows`, scores the rest
    with :func:`_best_exchange` (the one step that loops over
    candidates), and refits the candidates whose best exchange of one
    subset row for one outside row lowers the determinant, so the final
    subsets are also optimal under single exchanges.  A candidate stops
    when no exchange lowers it, when its refit fails (with a warning) or
    after ``_MAX_SWEEPS`` exchanges (with a warning).  With ``k`` outside
    rows left after the bound, a sweep costs O(m p^2 + k h) time and
    O(m p + max(_PAIR_CHUNK, h)) memory per candidate.
    """
    K, m, p = Z.shape
    h = st.subset.shape[1]
    scale = math.sqrt(c_alpha / (h - 1))
    act = st.live()
    Za = Z if act.size == K else Z[act]
    for _ in range(_MAX_SWEEPS):
        if not act.size:
            break
        offsets = (np.arange(act.size) * m)[:, None]
        W = (Za - st.mu[act][:, None, :]) @ st.inv_chol[act].transpose(0, 2, 1)
        W *= scale
        q = np.einsum("kij,kij->ki", W, W).ravel()
        W = W.reshape(-1, p)
        inside = st.subset[act] + offsets
        out_mask = np.ones(act.size * m, dtype=bool)
        out_mask[inside] = False
        outside = np.flatnonzero(out_mask).reshape(act.size, m - h)
        W_in, W_out = np.take(W, inside, axis=0), np.take(W, outside, axis=0)
        q_in, q_out = np.take(q, inside), np.take(q, outside)
        scored = _exchange_rows(W_in, W_out, q_in, q_out)
        movers, rows = [], []
        for i in range(act.size):
            ratio, b, slot = _best_exchange(W_in[i], W_out[i], q_in[i], q_out[i], scored[i])
            if ratio < 1.0 - 1e-12:
                swapped = inside[i].copy()
                swapped[slot] = outside[i, b]
                movers.append(i)
                rows.append(np.sort(swapped))
        if not movers:
            act = act[:0]
            break
        movers = np.array(movers)
        idx = act[movers]
        fits = _refit(Za, movers, np.array(rows) - offsets[movers], c_alpha)
        for exc in filter(None, fits.error):
            _warn(__name__, "exchange polish stopped early: refit failed (%s)", exc)
        ok = fits.live()
        better = ok[fits.det[ok] < st.det[idx[ok]]]
        st.take(idx[better], fits, better)
        act, Za = _keep(act, Za, movers[better])
    for _ in act:
        _warn(
            __name__,
            "exchange polish did not converge within %d sweeps (n=%d, h=%d); "
            "keeping the last subset",
            _MAX_SWEEPS, m, h,
        )


def _fit_stack(Z: np.ndarray, kinds: np.ndarray, h: int) -> list:
    """Fits of a stack of candidates: the rows ``Z[k]`` from start
    ``kinds[k]``, each concentrated and polished at subset size ``h``.
    Returns per candidate a :class:`RawEstimate`, or the exception that
    ended its fit."""
    st = _start(Z, kinds)
    c_alpha = consistency_factor(h, Z.shape[1], Z.shape[2])
    _concentrate(Z, st, h, c_alpha)
    _polish(Z, st, c_alpha)
    return [
        st.error[k] or RawEstimate(_loc_scat(st, k), st.subset[k], float(st.det[k]), c_alpha)
        for k in range(len(kinds))
    ]


def _plan_stacks(sizes) -> list[list[tuple[int, int]]]:
    """The candidates ``(block, start)`` of blocks with these row counts,
    grouped by block size into stacks of at most ``_STACK_ROWS`` rows (a
    larger candidate is a stack of its own), as even as the group allows."""
    stacks = []
    for m in sorted(set(sizes), reverse=True):
        group = [(b, start) for b, size in enumerate(sizes) if size == m for start in range(2)]
        count = -(-len(group) // max(1, _STACK_ROWS // m))
        stacks += [group[i * len(group) // count : (i + 1) * len(group) // count] for i in range(count)]
    return stacks


def _fit_blocks(Z: np.ndarray, blocks, hs, *, map_stacks=map) -> list[RawEstimate]:
    """Best raw fit of each block ``Z[blocks[b]]``, whose rows are in
    canonical order, at subset size ``hs[b]``.

    The stacks of :func:`_plan_stacks` are fitted through ``map_stacks``
    (the builtin ``map``, or the worker pool's ``_threads.ordered_map``).
    Each block keeps the candidate with the smaller determinant, the
    spatial-sign start on a tie.  The first failure in (block, start) order is raised, and
    ``AllStartsDegenerate`` when both starts of a block are degenerate.
    The returned subsets index the rows of each block.
    """
    p = Z.shape[1]
    stacks = _plan_stacks([rows.shape[0] for rows in blocks])

    def fit_one(stack):
        Zk = Z[np.concatenate([blocks[b] for b, _ in stack])].reshape(len(stack), -1, p)
        return _fit_stack(Zk, np.array([start for _, start in stack]), hs[stack[0][0]])

    fits = {}
    for stack, results in zip(stacks, map_stacks(fit_one, stacks)):
        fits.update(zip(stack, results))
    best = []
    for b in range(len(blocks)):
        won = None
        for start in range(2):
            fit = fits[b, start]
            if isinstance(fit, DegenerateStart):
                continue
            if isinstance(fit, Exception):
                raise fit
            if won is None or fit.det_uncorrected < won.det_uncorrected:
                won = fit
        if won is None:
            raise AllStartsDegenerate("both initial scatter estimates are degenerate")
        best.append(won)
    return best


def fit_mcd(Z, h: int) -> RawEstimate:
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
        ``_MAX_CSTEPS`` steps) plus exchange polishing (at most
        ``_MAX_SWEEPS`` sweeps), fitted as a stack of one block.  A
        candidate that reaches either cap keeps its last subset, with a
        warning through the ``robustqda.mcd`` logger.  The returned subset refers to rows of ``Z`` in the
        caller's ordering, while the estimate itself is computed in
        canonical row order, so permuting the rows of ``Z`` reproduces the
        identical estimate.
    """
    Z = as_data_matrix(Z, name="Z")
    n, p = Z.shape
    if n <= 2 * p:
        raise TooFewObservations(f"need n > 2p, got n={n}, p={p}")
    if not (p + 1 <= h < n):
        raise DomainError(f"h must satisfy p + 1 <= h < n, got h={h} for n={n}, p={p}")
    order = _canonical_order(Z)
    best = _fit_blocks(Z, (order,), (h,))[0]
    return replace(best, subset=np.sort(order[best.subset]))


def _canonical_order(Z: np.ndarray) -> np.ndarray:
    """Row order that sorts ``Z`` lexicographically, first column first,
    equal rows in row order: the permutation ``np.lexsort(Z.T[::-1])``.
    Fitting rows in this order makes every accumulation independent of
    the caller's row order, bit for bit.

    A stable sort on the first column settles every row whose first key
    is unique; only the runs of tied first keys are sorted again, on the
    other columns, the sort's stability keeping equal rows in row order.
    """
    order = np.argsort(Z[:, 0], kind="stable")
    first = Z[order, 0]
    same = first[1:] == first[:-1]
    tied = np.zeros(first.shape[0], dtype=bool)
    tied[1:] = same
    tied[:-1] |= same
    at = np.flatnonzero(tied)
    rows = order[at]
    order[at] = rows[np.lexsort((*Z[rows, :0:-1].T, first[at]))]
    return order


def reweight(Z, raw) -> tuple[LocationScatter, np.ndarray]:
    """One-step reweighting of a raw estimate.

    ``raw`` is any estimate that carries its location and scatter as
    ``raw.loc_scat`` (a ``RawEstimate`` or a pooled one).  Flags row ``i``
    as an inlier (weight 1) when its squared robust distance under
    ``raw.loc_scat`` is at most the chi-square 0.975 quantile, then
    returns the classical mean and covariance of the inliers with the
    matching consistency factor applied, plus the 0/1 weight vector.
    """
    Z = as_data_matrix(Z, name="Z")
    n, p = Z.shape
    d2 = raw.loc_scat.squared_distances(Z)
    cutoff = chi2_quantile(p, REWEIGHT_QUANTILE)
    weights = d2 <= cutoff
    kept = int(weights.sum())
    if kept <= p:
        raise TooFewInliers(f"reweighting kept {kept} rows, need more than p={p}")
    mu, cov = _mean_cov(Z[weights])
    refined = LocationScatter.from_sigma(mu, REWEIGHT_QUANTILE / chi2_cdf(cutoff, p + 2) * cov)
    return refined, weights

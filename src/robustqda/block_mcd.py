"""Block-parallel minimum covariance determinant estimation.

Pipeline: standardize robustly, shuffle rows into q blocks, fit each
block, pool the per-block estimates through entry-wise medians, discard
the half of the blocks whose estimates deviate most from that median in
a KL sense, re-pool the surviving h-subsets in a single pass, reweight
once against the pooled raw estimate, and map everything back to the
original coordinates.  The block fits run as stacks of (block, start)
candidates of one block size, at most ``mcd._STACK_ROWS`` rows each
(``mcd._fit_blocks``), mapped over forked workers when the blocks are
large.  Given the same seed the result is identical for any worker
count, any stack layout, and any row permutation of the input.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .core import LocationScatter, _mean_cov, as_data_matrix, check_block_count, check_seed, median, substream
from .errors import BlocksTooSmall, DataError, DomainError, TooFewObservations
from .mcd import _WORKER_BLOCK_ROWS, _canonical_order, _fit_blocks, consistency_factor, h_from_fraction, reweight
from .robust_scale import Standardizer, destandardize_estimate, fit_standardizer, standardize

__all__ = [
    "BlockDiagnostics",
    "BlockwiseResult",
    "PooledRaw",
    "blockwise_mcd",
    "default_block_count",
    "median_pool",
    "select_and_pool",
    "split_blocks",
]

_MIN_BLOCK_ROWS = 20


@dataclass(frozen=True)
class PooledRaw:
    """Raw pooled estimate over the h-subsets of the selected blocks.

    ``kl_deviations`` holds, per block, the KL deviation of the entry-wise
    median estimate from that block's fit, which drove the selection.
    """

    loc_scat: LocationScatter
    subset: np.ndarray = field(repr=False)
    c_alpha: float
    contributing_blocks: tuple
    n_selected: int
    kl_deviations: tuple

    def __post_init__(self):
        object.__setattr__(self, "subset", np.array(self.subset, dtype=np.intp))
        self.subset.setflags(write=False)

    @property
    def h(self) -> int:
        return self.subset.shape[0]


@dataclass(frozen=True)
class BlockDiagnostics:
    """Per-block facts of a fit: each block's rows, subset size and
    uncorrected determinant, and the block count ``q``.  The screening and
    pooling facts live in :class:`PooledRaw`."""

    block_sizes: tuple
    h_values: tuple
    block_dets: tuple

    @property
    def q(self) -> int:
        return len(self.block_sizes)


@dataclass(frozen=True)
class BlockwiseResult:
    estimate: LocationScatter
    weights: np.ndarray = field(repr=False)
    standardizer: Standardizer
    raw: PooledRaw
    diagnostics: BlockDiagnostics

    def __post_init__(self):
        self.weights.setflags(write=False)


def default_block_count(n: int, p: int) -> int:
    """The q that ``blocks="auto"`` resolves to: one block per full
    ``mcd._WORKER_BLOCK_ROWS`` rows, capped so blocks keep at least ``20 p``
    rows and the hard minimum size.  Reads n and p only, never the machine."""
    cap = min(n // (20 * p), n // max(2 * (p + 1), _MIN_BLOCK_ROWS))
    return max(1, min(n // _WORKER_BLOCK_ROWS, cap))


def split_blocks(n: int, q: int, rng: np.random.Generator | None, *, min_block_size: int = _MIN_BLOCK_ROWS) -> tuple:
    """Shuffle rows 0..n-1 and chunk them into q nearly equal blocks,
    returned as a tuple of q disjoint index arrays that cover the rows.

    The first ``n mod q`` blocks receive one extra row, and each block
    lists its rows in ascending order, so a block of rows in canonical
    order stays in canonical order.  With q = 1 the single block keeps
    all rows (no shuffle, so ``rng`` may be None, and no size constraint).
    """
    q = check_block_count(q)
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    if q == 1:
        return (np.arange(n, dtype=np.intp),)
    if n // q < min_block_size:
        raise BlocksTooSmall(
            f"{q} blocks of {n} rows gives blocks of {n // q} < {min_block_size} rows"
        )
    return tuple(np.sort(rows).astype(np.intp) for rows in np.array_split(rng.permutation(n), q))


def median_pool(estimates) -> tuple[np.ndarray, np.ndarray]:
    """Entry-wise median of per-block locations and scatters.

    The pooled scatter is symmetric by construction but not necessarily
    positive definite; it only serves as a reference point for the KL
    screening below.
    """
    if len(estimates) < 1:
        raise DataError("median_pool needs at least one estimate")
    mus = np.stack([e.mu for e in estimates])
    sigmas = np.stack([e.sigma for e in estimates])
    return median(mus, 0), median(sigmas, 0)


def _kl_core(sigma_a: np.ndarray, mu_a: np.ndarray, fits) -> list[float]:
    """Gaussian KL-style deviations of (sigma_a, mu_a) from each
    :class:`LocationScatter` ``B`` of ``fits``:
    ``trace(A B^-1 - I) - ln|A B^-1| + (a - b)' B^-1 (a - b)``.  The first
    pair may be indefinite (entry-wise medians can be); when its
    determinant is not positive every deviation is +inf."""
    sign, logdet_a = np.linalg.slogdet(sigma_a)
    if sign <= 0:
        return [float("inf")] * len(fits)
    deviations = []
    for ls_b in fits:
        trace = float(np.sum(sigma_a * ls_b.precision))
        diff = mu_a - ls_b.mu
        quad = float(diff @ ls_b.precision @ diff)
        # Nonnegative in exact arithmetic; clamp the rounding noise of equal
        # arguments (a one-block fit) at 0.
        deviations.append(max(trace - ls_b.p - (logdet_a - ls_b.log_det) + quad, 0.0))
    return deviations


def select_and_pool(Z, blocks, estimates) -> PooledRaw:
    """Screen the fits of the q ``blocks`` of :func:`split_blocks`, one
    estimate per block, against their median and pool the survivors.

    Keeps the floor(q/2) blocks with the smallest KL deviation from the
    entry-wise median estimate (ties resolve to the lower block id; a
    single block is always kept) and recomputes one raw estimate from the
    union of their h-subsets: their mean and consistency-scaled sample
    covariance (``core._mean_cov``).
    """
    Z = as_data_matrix(Z, name="Z")
    n, p = Z.shape
    q = len(blocks)
    if len(estimates) != q:
        raise DataError(f"expected {q} block estimates, got {len(estimates)}")
    mu_med, sigma_med = median_pool(estimates)
    deviations = np.array(_kl_core(sigma_med, mu_med, [e.loc_scat for e in estimates]))
    keep = max(1, q // 2)
    chosen = np.sort(np.argsort(deviations, kind="stable")[:keep])
    pooled_rows = np.sort(
        np.concatenate([blocks[b][estimates[b].subset] for b in chosen])
    )
    m = pooled_rows.shape[0]
    n_selected = int(sum(blocks[b].shape[0] for b in chosen))
    mu, cov = _mean_cov(Z[pooled_rows])
    c_alpha = consistency_factor(m, n_selected, p)
    loc_scat = LocationScatter.from_sigma(mu, c_alpha * cov)
    return PooledRaw(
        loc_scat=loc_scat,
        subset=pooled_rows,
        c_alpha=c_alpha,
        contributing_blocks=tuple(int(b) + 1 for b in chosen),
        n_selected=n_selected,
        kl_deviations=tuple(float(d) for d in deviations),
    )


def blockwise_mcd(X, *, h_frac: float = 0.5, blocks: int | str = 1, rng=0) -> BlockwiseResult:
    """Robust location/scatter of ``X`` via block-parallel MCD.

    Parameters
    ----------
    X : array, shape (n, p)
        Raw data in original coordinates; ``n > 2p`` required.
    h_frac : float
        Coverage fraction in [0.5, 1) handed to :func:`h_from_fraction`
        within every block.
    blocks : int or "auto"
        Number of blocks q; ``"auto"`` takes :func:`default_block_count`
        of the data's shape, the same on any machine.  Anything else that
        is not a positive integer raises ``DomainError``.  q = 1 reduces to a
        single MCD fit followed by reweighting.  The stacks of block
        candidates are fitted on up to ``ROBUST_QDA_THREADS`` forked
        workers when the smallest block has at least
        ``mcd._WORKER_BLOCK_ROWS`` rows, and one after another otherwise.
        Inside a ``simulate`` worker process the cap is that worker's
        share, ``max(1, cap // workers)``, since the study's replications
        already run on up to ``cap`` processes.  The result is the same
        either way.
    rng : int or function
        The single random element, the row shuffle, draws from it.  A
        non-negative integer seed, whose generator is
        ``core.substream(seed)``, or a function of no arguments that
        returns a numpy generator.  Either is drawn on only when q > 1, so
        a fit of one block builds no generator.  Anything else raises
        ``DomainError``.  Everything else is deterministic.

    Returns
    -------
    BlockwiseResult
        Reweighted estimate in original coordinates, per-row 0/1 inlier
        weights, the standardizer, the pooled raw estimate (standardized
        coordinates), and per-block diagnostics.
    """
    X = as_data_matrix(X)
    n, p = X.shape
    if n <= 2 * p:
        raise TooFewObservations(f"need n > 2p, got n={n}, p={p}")
    shuffle = rng if callable(rng) else partial(substream, check_seed(rng))
    standardizer = fit_standardizer(X)
    Z = standardize(X, standardizer)
    # Blocks list their rows in ascending order, so each block of Zc is
    # canonical as it stands and is fitted without sorting it again.
    order = _canonical_order(Z)
    Zc = Z[order]
    q = default_block_count(n, p) if blocks == "auto" else check_block_count(blocks)
    min_rows = max(2 * (p + 1), _MIN_BLOCK_ROWS)
    blocks = split_blocks(n, q, shuffle() if q > 1 else None, min_block_size=min_rows)
    sizes = tuple(rows.shape[0] for rows in blocks)
    hs = [h_from_fraction(size, p, h_frac) for size in sizes]
    estimates = _fit_blocks(Zc, blocks, hs)
    pooled = select_and_pool(Zc, blocks, estimates)
    refined, weights_c = reweight(Zc, pooled)
    weights = np.empty(n, dtype=bool)
    weights[order] = weights_c
    # The pooled subset indexes the canonical ordering; translate it to
    # the caller's row numbering before exposing it.
    pooled = replace(pooled, subset=np.sort(order[pooled.subset]))
    diagnostics = BlockDiagnostics(
        block_sizes=sizes,
        h_values=tuple(int(e.h) for e in estimates),
        block_dets=tuple(float(e.det_uncorrected) for e in estimates),
    )
    return BlockwiseResult(
        estimate=destandardize_estimate(refined, standardizer),
        weights=weights,
        standardizer=standardizer,
        raw=pooled,
        diagnostics=diagnostics,
    )

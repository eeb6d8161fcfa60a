"""Block-parallel minimum covariance determinant estimation.

Pipeline: standardize robustly, shuffle rows into q blocks, fit each
block independently (on worker threads when the blocks are large), pool the
per-block estimates through entry-wise medians, discard the half of the
blocks whose estimates deviate most from that median in a KL sense,
re-pool the surviving h-subsets in a single pass, reweight once against
the pooled raw estimate, and map everything back to the original
coordinates.  Given the same seed the result is identical for any worker
count, any block processing order, and any row permutation of the input.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from ._threads import ordered_map, worker_count
from .core import LocationScatter, as_data_matrix
from .errors import BlocksTooSmall, DataError, DomainError, TooFewObservations
from .mcd import (
    RawEstimate,
    _canonical_order,
    _fit_canonical,
    consistency_factor,
    h_from_fraction,
    reweight,
)
from .robust_scale import Standardizer, destandardize_estimate, fit_standardizer, standardize

__all__ = [
    "BlockDiagnostics",
    "BlockPlan",
    "BlockwiseResult",
    "PooledRaw",
    "blockwise_mcd",
    "default_block_count",
    "median_pool",
    "select_and_pool",
    "split_blocks",
]

_MIN_BLOCK_ROWS = 20

# The smallest block worth splitting off, and worth a thread.  Small
# fits are dominated by per-step Python overhead: on 100k rows, 5000-row
# blocks fit as fast as 25000-row ones and 1000-row blocks took 60%
# longer, so ``"auto"`` never splits below this size.  That overhead
# holds the GIL, so threads pay off only from here: with BLAS pinned to
# one thread and 4 blocks on 2 cores, two threads were slower than one
# at 1000- and 2500-row blocks, tied at 5000 rows and were faster from
# 10000 rows on (BENCH_threads_crossover.json).
_THREADED_BLOCK_ROWS = 5_000


@dataclass(frozen=True)
class BlockPlan:
    """Disjoint covering assignment of row indices to q blocks."""

    q: int
    assignments: tuple
    sizes: tuple

    @property
    def n(self) -> int:
        return int(sum(self.sizes))


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
    q: int
    block_sizes: tuple
    h_values: tuple
    block_dets: tuple
    kl_deviations: tuple
    selected_blocks: tuple
    pooled_h: int
    inlier_count: int


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
    ``_THREADED_BLOCK_ROWS`` rows, capped so blocks keep at least ``20 p``
    rows and the hard minimum size.  Reads n and p only, never the machine."""
    cap = min(n // (20 * p), n // max(2 * (p + 1), _MIN_BLOCK_ROWS))
    return max(1, min(n // _THREADED_BLOCK_ROWS, cap))


def split_blocks(n: int, q: int, rng: np.random.Generator, *, min_block_size: int = _MIN_BLOCK_ROWS) -> BlockPlan:
    """Shuffle rows 0..n-1 and chunk them into q nearly equal blocks.

    The first ``n mod q`` blocks receive one extra row, and each block
    lists its rows in ascending order, so a block of rows in canonical
    order stays in canonical order.  With q = 1 the single block keeps
    all rows (no shuffle needed, no size constraint).
    """
    if not isinstance(q, numbers.Real) or not float(q).is_integer() or q < 1:
        raise DomainError(f"q must be a positive integer, got {q!r}")
    q = int(q)
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    if q == 1:
        return BlockPlan(q=1, assignments=(np.arange(n, dtype=np.intp),), sizes=(n,))
    if n // q < min_block_size:
        raise BlocksTooSmall(
            f"{q} blocks of {n} rows gives blocks of {n // q} < {min_block_size} rows"
        )
    perm = rng.permutation(n)
    base, extra = divmod(n, q)
    assignments = []
    start = 0
    for block in range(q):
        size = base + (1 if block < extra else 0)
        assignments.append(np.sort(perm[start : start + size]).astype(np.intp))
        start += size
    return BlockPlan(q=q, assignments=tuple(assignments), sizes=tuple(len(a) for a in assignments))


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
    return np.median(mus, axis=0), np.median(sigmas, axis=0)


def _kl_core(sigma_a: np.ndarray, mu_a: np.ndarray, ls_b: LocationScatter) -> float:
    """Gaussian KL-style deviation of (sigma_a, mu_a) from ``ls_b``:
    ``trace(A B^-1 - I) - ln|A B^-1| + (a - b)' B^-1 (a - b)``.  The first
    pair may be indefinite (entry-wise medians can be); when its
    determinant is not positive the deviation is +inf."""
    p = ls_b.p
    sign, logdet_a = np.linalg.slogdet(sigma_a)
    if sign <= 0:
        return float("inf")
    trace = float(np.sum(sigma_a * ls_b.precision))
    diff = mu_a - ls_b.mu
    quad = float(diff @ ls_b.precision @ diff)
    # Nonnegative in exact arithmetic; clamp the rounding noise of equal
    # arguments (a one-block fit) at 0.
    return max(trace - p - (logdet_a - ls_b.log_det) + quad, 0.0)


def select_and_pool(Z, plan: BlockPlan, estimates) -> PooledRaw:
    """Screen block fits against their median and pool the survivors.

    Keeps the floor(q/2) blocks with the smallest KL deviation from the
    entry-wise median estimate (ties resolve to the lower block id; a
    single block is always kept) and recomputes one raw estimate from the
    union of their h-subsets via accumulated sums and cross-products.
    """
    Z = as_data_matrix(Z, name="Z")
    n, p = Z.shape
    if len(estimates) != plan.q:
        raise DataError(f"expected {plan.q} block estimates, got {len(estimates)}")
    mu_med, sigma_med = median_pool(estimates)
    deviations = np.array([_kl_core(sigma_med, mu_med, e.loc_scat) for e in estimates])
    keep = max(1, plan.q // 2)
    chosen = np.sort(np.argsort(deviations, kind="stable")[:keep])
    pooled_rows = np.sort(
        np.concatenate([plan.assignments[b][estimates[b].subset] for b in chosen])
    )
    m = pooled_rows.shape[0]
    n_selected = int(sum(plan.sizes[b] for b in chosen))
    rows = Z[pooled_rows]
    sum_x = rows.sum(axis=0)
    cross = rows.T @ rows
    mu = sum_x / m
    scatter = cross - np.outer(sum_x, sum_x) / m
    c_alpha = consistency_factor(m, n_selected, p)
    loc_scat = LocationScatter.from_sigma(mu, c_alpha * scatter / (m - 1))
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
        single MCD fit followed by reweighting.  The blocks are fitted on
        a pool of up to ``ROBUST_QDA_THREADS`` threads when the smallest
        has at least ``_THREADED_BLOCK_ROWS`` rows, and one after another
        otherwise: smaller fits spend most of their time in Python-level
        overhead that holds the GIL, so threads would slow them down.
        Inside a ``simulate`` worker process the cap is that worker's
        share, ``max(1, cap // workers)``, since the study's replications
        already run on up to ``cap`` processes.  The result is the same
        either way.
    rng : int or numpy Generator
        Seed (or generator) driving the single random element, the
        row shuffle.  Everything else is deterministic.

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
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(np.random.SeedSequence(int(rng)))
    standardizer = fit_standardizer(X)
    Z = standardize(X, standardizer)
    # Blocks list their rows in ascending order, so each block of Zc is
    # canonical as it stands and is fitted without sorting it again.
    order = _canonical_order(Z)
    Zc = Z[order]
    q = default_block_count(n, p) if blocks == "auto" else blocks
    plan = split_blocks(n, q, rng, min_block_size=max(2 * (p + 1), _MIN_BLOCK_ROWS))

    def fit_block(b: int) -> RawEstimate:
        rows = plan.assignments[b]
        h = h_from_fraction(rows.shape[0], p, h_frac)
        return _fit_canonical(Zc[rows], h)

    if min(plan.sizes) >= _THREADED_BLOCK_ROWS:
        estimates = ordered_map(fit_block, range(plan.q))
    else:
        worker_count()  # a bad ROBUST_QDA_THREADS fails every fit, threaded or not
        estimates = [fit_block(b) for b in range(plan.q)]
    pooled = select_and_pool(Zc, plan, estimates)
    refined, weights_c = reweight(Zc, pooled)
    weights = np.empty(n, dtype=bool)
    weights[order] = weights_c
    # The pooled subset indexes the canonical ordering; translate it to
    # the caller's row numbering before exposing it.
    pooled = replace(pooled, subset=np.sort(order[pooled.subset]))
    diagnostics = BlockDiagnostics(
        q=plan.q,
        block_sizes=plan.sizes,
        h_values=tuple(int(e.h) for e in estimates),
        block_dets=tuple(float(e.det_uncorrected) for e in estimates),
        kl_deviations=pooled.kl_deviations,
        selected_blocks=pooled.contributing_blocks,
        pooled_h=pooled.h,
        inlier_count=int(weights.sum()),
    )
    return BlockwiseResult(
        estimate=destandardize_estimate(refined, standardizer),
        weights=weights,
        standardizer=standardizer,
        raw=pooled,
        diagnostics=diagnostics,
    )

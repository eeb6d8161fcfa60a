"""Tests for the deterministic single-block MCD estimator."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustqda.errors import (
    AllStartsDegenerate,
    DataError,
    DegenerateStart,
    DomainError,
    NotPositiveDefinite,
    TooFewInliers,
    TooFewObservations,
)
from robustqda.mcd import (
    REWEIGHT_QUANTILE,
    c_step,
    consistency_factor,
    fit_mcd,
    h_from_fraction,
    initial_starts,
    raw_from_subset,
    reweight,
)
from robustqda.core import chi2_quantile


def exhaustive_min_det(X: np.ndarray, h: int) -> float:
    best = math.inf
    for subset in itertools.combinations(range(X.shape[0]), h):
        d = float(np.linalg.det(np.cov(X[list(subset)].T, ddof=1)))
        best = min(best, d)
    return best


class TestHFromFraction:
    def test_breakdown_floor_and_fraction(self):
        assert h_from_fraction(100, 2, 0.5) == 51
        assert h_from_fraction(100, 2, 0.75) == 75
        assert h_from_fraction(18, 2, 0.5) == 10
        assert h_from_fraction(21, 3, 0.5) == 12

    def test_never_reaches_n(self):
        assert h_from_fraction(20, 2, 0.99) == 19

    def test_domain(self):
        with pytest.raises(DomainError):
            h_from_fraction(100, 2, 0.49)
        with pytest.raises(DomainError):
            h_from_fraction(100, 2, 1.0)
        with pytest.raises(TooFewObservations):
            h_from_fraction(5, 3, 0.5)


class TestConsistencyFactor:
    def test_frozen_value(self):
        assert consistency_factor(1, 2, 5) == pytest.approx(1.9122080585129493, abs=1e-12)
        assert consistency_factor(500, 1000, 5) == pytest.approx(1.9122080585129493, abs=1e-12)

    def test_full_subset_is_neutral(self):
        assert consistency_factor(50, 50, 3) == 1.0

    def test_monte_carlo_consistency(self):
        # variance of the most central half of a standard normal sample,
        # scaled by the factor, should approach 1
        rng = np.random.default_rng(42)
        x = rng.standard_normal(400000)
        h = 200000
        central = np.sort(np.abs(x - np.median(x)))[:h]
        var = np.mean(central**2)
        assert var * consistency_factor(h, x.shape[0], 1) == pytest.approx(1.0, abs=0.01)

    def test_domain(self):
        with pytest.raises(DomainError):
            consistency_factor(0, 10, 2)
        with pytest.raises(DomainError):
            consistency_factor(11, 10, 2)
        with pytest.raises(DomainError):
            consistency_factor(5, 10, 0)


class TestRawFromSubset:
    def test_matches_direct_moments(self):
        rng = np.random.default_rng(3)
        Z = rng.standard_normal((30, 3))
        subset = np.array([0, 4, 9, 11, 14, 17, 20, 22, 25, 29])
        est = raw_from_subset(Z, subset)
        rows = Z[subset]
        c = consistency_factor(10, 30, 3)
        assert np.allclose(est.mu, rows.mean(axis=0), atol=1e-12)
        assert np.allclose(est.sigma, c * np.cov(rows.T, ddof=1), atol=1e-12)
        assert est.det_uncorrected == pytest.approx(np.linalg.det(np.cov(rows.T, ddof=1)), rel=1e-10)
        assert est.c_alpha == pytest.approx(c, abs=1e-15)

    def test_subset_validation(self):
        Z = np.random.default_rng(0).standard_normal((10, 2))
        with pytest.raises(DataError):
            raw_from_subset(Z, [0, 1, 2, 2, 4])
        with pytest.raises(DataError):
            raw_from_subset(Z, [0, 1, 2, 3, 10])
        with pytest.raises(TooFewObservations):
            raw_from_subset(Z, [0, 1])


class TestCStep:
    def test_determinant_sequence_non_increasing(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            Z = rng.standard_normal((40, 3))
            Z[:6] += 8.0
            subset = np.sort(rng.choice(40, 21, replace=False))
            current = raw_from_subset(Z, subset)
            dets = [current.det_uncorrected]
            for _step in range(100):
                nxt = c_step(Z, current)
                dets.append(nxt.det_uncorrected)
                converged = np.array_equal(nxt.subset, current.subset)
                current = nxt
                if converged:
                    break
            assert all(b <= a * (1 + 1e-12) for a, b in zip(dets, dets[1:]))
            # converged subset reproduces itself
            again = c_step(Z, current)
            assert np.array_equal(again.subset, current.subset)

    def test_tie_break_prefers_lower_index(self):
        # four equidistant points and h = 3: the subset must keep the two
        # central rows and the lowest-index one of the tied pair
        Z = np.array([[0.0, 0.1], [0.05, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 5.0]])
        est = raw_from_subset(Z, [0, 1, 2, 3])
        d2 = est.loc_scat.squared_distances(Z)
        # build a tie explicitly at rank h
        d2[2] = d2[3]
        order = np.argsort(d2, kind="stable")
        assert list(order).index(2) < list(order).index(3)


class TestFitMcd:
    def test_never_below_exhaustive_minimum(self):
        rng = np.random.default_rng(12)
        for _ in range(15):
            X = rng.standard_normal((12, 2))
            X[:3] += 10.0
            est = fit_mcd(X, 7)
            oracle = exhaustive_min_det(X, 7)
            assert est.det_uncorrected >= oracle * (1 - 1e-9)

    def test_attains_exhaustive_minimum_usually(self):
        rng = np.random.default_rng(13)
        hits = 0
        for _ in range(20):
            X = rng.standard_normal((12, 2))
            X[:3] += 10.0
            est = fit_mcd(X, 7)
            oracle = exhaustive_min_det(X, 7)
            if est.det_uncorrected <= oracle * (1 + 1e-9):
                hits += 1
        assert hits >= 16

    def test_single_swap_optimal(self):
        # no exchange of one inside row for one outside row may lower the
        # determinant of the returned subset
        rng = np.random.default_rng(14)
        for _ in range(10):
            X = rng.standard_normal((16, 2))
            X[:4] += 6.0
            est = fit_mcd(X, 9)
            subset = set(est.subset.tolist())
            best = est.det_uncorrected
            for a in sorted(subset):
                for b in range(16):
                    if b in subset:
                        continue
                    cand = sorted(subset - {a} | {b})
                    d = float(np.linalg.det(np.cov(X[cand].T, ddof=1)))
                    assert d >= best * (1 - 1e-9)

    def test_permutation_invariance_exact(self):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((60, 3))
        X[:9] += 5.0
        base = fit_mcd(X, 30)
        for _ in range(5):
            perm = rng.permutation(60)
            est = fit_mcd(X[perm], 30)
            assert np.array_equal(est.mu, base.mu)
            assert np.array_equal(est.sigma, base.sigma)
            assert np.array_equal(np.sort(perm[est.subset]), base.subset)

    def test_rejects_contamination(self):
        rng = np.random.default_rng(16)
        X = rng.standard_normal((200, 2))
        X[:60] = rng.standard_normal((60, 2)) * 0.3 + 25.0
        est = fit_mcd(X, h_from_fraction(200, 2, 0.5))
        assert np.all(est.subset >= 60)
        assert np.linalg.norm(est.mu) < 1.0

    def test_argument_validation(self):
        X = np.random.default_rng(0).standard_normal((10, 4))
        with pytest.raises(TooFewObservations):
            fit_mcd(X[:8], 5)
        with pytest.raises(DomainError):
            fit_mcd(np.random.default_rng(0).standard_normal((30, 2)), 2)
        with pytest.raises(DomainError):
            fit_mcd(np.random.default_rng(0).standard_normal((30, 2)), 30)

    def test_all_constant_data_degenerates(self):
        with pytest.raises(AllStartsDegenerate):
            fit_mcd(np.ones((20, 2)), 10)

    def test_canonical_entry_point_matches_fit_mcd(self):
        from robustqda.mcd import _fit_blocks

        rng = np.random.default_rng(41)
        for n, p in ((40, 2), (300, 3), (1200, 5)):
            # Half-integer values: many tied coordinates and duplicate rows.
            Z = np.round(rng.standard_normal((n, p)) * 2.0) / 2.0
            Z[: n // 5] += 4.0
            Zc = Z[np.lexsort(Z.T[::-1])]
            h = h_from_fraction(n, p, 0.5)
            trusted = _fit_blocks(Zc, (np.arange(n),), (h,))[0]
            for public in (fit_mcd(Zc, h), fit_mcd(Z, h)):
                assert np.array_equal(public.mu, trusted.mu)
                assert np.array_equal(public.sigma, trusted.sigma)
                assert public.det_uncorrected == trusted.det_uncorrected
                assert public.c_alpha == trusted.c_alpha
            assert np.array_equal(fit_mcd(Zc, h).subset, trusted.subset)


class TestInitialStarts:
    def test_two_positive_definite_starts(self):
        rng = np.random.default_rng(17)
        Z = rng.standard_normal((100, 4))
        starts = initial_starts(Z)
        assert len(starts) == 2
        for s in starts:
            assert s.p == 4
            assert np.all(np.linalg.eigvalsh(s.sigma) > 0)

    def test_deterministic(self):
        rng = np.random.default_rng(18)
        Z = rng.standard_normal((50, 3))
        a = initial_starts(Z)
        b = initial_starts(Z)
        for s, t in zip(a, b):
            assert np.array_equal(s.mu, t.mu)
            assert np.array_equal(s.sigma, t.sigma)


class TestReweight:
    def test_weight_rule_is_exact(self):
        rng = np.random.default_rng(19)
        Z = rng.standard_normal((300, 3))
        Z[:40] += 9.0
        raw = fit_mcd(Z, h_from_fraction(300, 3, 0.5))
        refined, weights = reweight(Z, raw)
        cutoff = chi2_quantile(3, REWEIGHT_QUANTILE)
        d2 = raw.loc_scat.squared_distances(Z)
        assert np.array_equal(weights, d2 <= cutoff)
        assert not weights[:40].any()

    def test_refined_moments_and_factor(self):
        rng = np.random.default_rng(20)
        Z = rng.standard_normal((400, 5))
        raw = fit_mcd(Z, h_from_fraction(400, 5, 0.5))
        refined, weights = reweight(Z, raw)
        kept = Z[weights]
        cov = np.cov(kept.T, ddof=1)
        assert np.allclose(refined.mu, kept.mean(axis=0), atol=1e-12)
        ratio = np.linalg.det(refined.sigma) / np.linalg.det(cov)
        assert ratio == pytest.approx(1.0555331100406593**5, rel=1e-9)

    def test_too_few_inliers(self):
        Z = np.random.default_rng(21).standard_normal((40, 2))
        tight = raw_from_subset(Z, np.arange(10))
        shrunk = type(tight)(
            loc_scat=tight.loc_scat.from_sigma(tight.mu + 100.0, tight.sigma * 1e-8),
            subset=tight.subset,
            det_uncorrected=tight.det_uncorrected,
            c_alpha=tight.c_alpha,
        )
        with pytest.raises(TooFewInliers):
            reweight(Z, shrunk)


def test_polish_never_worse_than_plain_concentration():
    # the exchange stage may only lower the determinant relative to the
    # best concentration fixed point reachable from the two starts
    rng = np.random.default_rng(22)
    for _ in range(10):
        Z = rng.standard_normal((24, 2))
        Z[:5] += 7.0
        est = fit_mcd(Z, 13)
        for start in initial_starts(Z):
            d2 = start.squared_distances(Z)
            current = raw_from_subset(Z, np.argsort(d2, kind="stable")[:13])
            for _step in range(100):
                nxt = c_step(Z, current)
                if np.array_equal(nxt.subset, current.subset):
                    break
                current = nxt
            assert est.det_uncorrected <= current.det_uncorrected * (1 + 1e-12)


class TestTrustedConcentration:
    """The concentration loop skips the public checks but not their results."""

    def test_consistency_factor_at_most_once_per_start(self):
        from unittest import mock

        from robustqda import mcd

        rng = np.random.default_rng(21)
        Z = rng.standard_normal((120, 3))
        Z[:15] += 7.0
        with mock.patch.object(mcd, "consistency_factor", wraps=consistency_factor) as spy:
            fit_mcd(Z, h_from_fraction(120, 3, 0.5))
        assert 1 <= spy.call_count <= 2

    def test_matches_public_c_steps(self):
        from robustqda.mcd import _smallest_h

        rng = np.random.default_rng(22)
        for _ in range(5):
            Z = rng.standard_normal((80, 3))
            Z[:10] = rng.standard_normal((10, 3)) * 0.3 + 6.0
            h = h_from_fraction(80, 3, 0.5)
            # both starts concentrated in one stack
            stack = concentrated(np.stack([Z, Z]), np.arange(2), h, 100)
            for k, start in enumerate(initial_starts(Z)):
                current = raw_from_subset(Z, _smallest_h(start.squared_distances(Z), h))
                for _ in range(100):
                    refined = c_step(Z, current)
                    done = np.array_equal(refined.subset, current.subset)
                    current = refined
                    if done:
                        break
                assert np.array_equal(stack.subset[k], current.subset)
                assert stack.det[k] == current.det_uncorrected
                assert consistency_factor(h, 80, 3) == current.c_alpha
                assert np.array_equal(stack.sigma[k], current.sigma)
                assert np.array_equal(stack.mu[k], current.mu)


def concentrated(Z, kinds, h, max_steps):
    """A stack of candidates ``Z`` from starts ``kinds``, concentrated."""
    from robustqda import mcd

    stack = mcd._start(Z, kinds)
    mcd._concentrate(Z, stack, h, consistency_factor(h, Z.shape[1], Z.shape[2]), max_steps)
    return stack


def whitened(Z, est):
    """The arguments of ``mcd._best_exchange`` for estimate ``est`` of the
    rows of ``Z``, plus the outside rows' indices."""
    from robustqda import mcd

    h = est.h
    outside = np.setdiff1d(np.arange(Z.shape[0]), est.subset)
    W = (Z - est.mu) @ est.loc_scat.inv_chol.T
    W *= math.sqrt(est.c_alpha / (h - 1))
    W_in, W_out = W[est.subset], W[outside]
    q_in = np.einsum("ij,ij->i", W_in, W_in)
    q_out = np.einsum("ij,ij->i", W_out, W_out)
    scored = mcd._exchange_rows(W_in[None], W_out[None], q_in[None], q_out[None])[0]
    return (W_in, W_out, q_in, q_out, scored), outside


def _dense_best_exchange(W_in, W_out, q_in, q_out, scored):
    """Reference exchange search: scores every (outside, inside) pair in
    one dense matrix, as the polish did before its search was pruned.
    The squared norms are recomputed from the rows one candidate at a
    time, and must equal the stacked ones bit for bit."""
    h = W_in.shape[0]
    assert np.array_equal(q_in, np.einsum("ij,ij->i", W_in, W_in))
    assert np.array_equal(q_out, np.einsum("ij,ij->i", W_out, W_out))
    q_cross = W_out @ W_in.T
    c1, c2, c3 = 1.0 - 1.0 / h, 1.0 / h, -(1.0 + 1.0 / h)
    a00 = 1.0 + c1 * q_out[:, None] + c2 * q_cross
    a01 = c1 * q_cross + c2 * q_in[None, :]
    a10 = c2 * q_out[:, None] + c3 * q_cross
    a11 = 1.0 + c2 * q_cross + c3 * q_in[None, :]
    ratio = a00 * a11 - a01 * a10
    flat = int(np.argmin(ratio))
    b_idx, a_idx = divmod(flat, h)
    return float(ratio.flat[flat]), b_idx, a_idx


class TestExactExchangeSearch:
    """The pruned exchange search picks the pair the dense one picks, with
    the same ratio bits, on every sweep of both starts."""

    @staticmethod
    def _fit_both_ways(Z, h):
        from unittest import mock

        from robustqda import mcd

        pruned = mcd._best_exchange
        sweeps = []

        def checked(*args):
            dense = _dense_best_exchange(*args)
            fast = pruned(*args)
            if dense[0] >= 1.0 - 1e-12:
                assert fast[0] >= 1.0 - 1e-12
            else:
                assert fast == dense
            sweeps.append(dense)
            return fast

        with mock.patch.object(mcd, "_best_exchange", checked):
            checked_fit = fit_mcd(Z, h)
        with mock.patch.object(mcd, "_best_exchange", _dense_best_exchange):
            dense_fit = fit_mcd(Z, h)
        assert np.array_equal(checked_fit.subset, dense_fit.subset)
        assert np.array_equal(checked_fit.mu, dense_fit.mu)
        assert np.array_equal(checked_fit.sigma, dense_fit.sigma)
        assert checked_fit.det_uncorrected == dense_fit.det_uncorrected
        return sweeps

    @staticmethod
    def _swaps(sweeps):
        return sum(ratio < 1.0 - 1e-12 for ratio, _, _ in sweeps)

    def test_tiny_blocks(self):
        rng = np.random.default_rng(31)
        sweeps = []
        for _ in range(40):
            n = int(rng.integers(12, 41))
            p = int(rng.integers(1, 4))
            X = rng.standard_normal((n, p))
            X[: n // 4] += 5.0
            sweeps += self._fit_both_ways(X, h_from_fraction(n, p, 0.5))
        assert self._swaps(sweeps) >= 10

    def test_h_near_n(self):
        rng = np.random.default_rng(32)
        sweeps = []
        for frac in (0.6, 0.75, 0.9, 0.99):
            for n in (20, 90, 400):
                X = rng.standard_normal((n, 3))
                X[: n // 10] *= 4.0
                sweeps += self._fit_both_ways(X, h_from_fraction(n, 3, frac))
        assert self._swaps(sweeps) >= 5

    def test_contaminated_5d(self):
        rng = np.random.default_rng(33)
        sweeps = []
        for n in (60, 300, 1500):
            X = rng.standard_normal((n, 5))
            X[: n // 5] = rng.standard_normal((n // 5, 5)) * 0.5 + 4.0
            for frac in (0.5, 0.75):
                sweeps += self._fit_both_ways(X, h_from_fraction(n, 5, frac))
        assert self._swaps(sweeps) >= 5

    def test_integer_data_with_ties(self):
        rng = np.random.default_rng(34)
        sweeps = []
        for n, p, spread in ((40, 2, 3), (300, 3, 2), (1200, 2, 2)):
            X = np.round(rng.standard_normal((n, p)) * spread)
            X[: n // 6] += 6.0
            sweeps += self._fit_both_ways(X, h_from_fraction(n, p, 0.5))
        assert self._swaps(sweeps) >= 3

    def test_survivors_span_several_chunks(self):
        from unittest import mock

        from robustqda import mcd

        # Rounded data and copies of a few points tie many outside rows
        # with the subset boundary, so the bound keeps them; a one-pair
        # chunk size makes every chunk two or three rows.
        rng = np.random.default_rng(35)
        copies = np.repeat(rng.standard_normal((12, 2)), 60, axis=0)
        blocks = [np.vstack([copies, rng.standard_normal((120, 2)) + 5.0])]
        for spread in (1.0, 1.5):
            for n in (30, 60, 200, 400):
                X = np.round(rng.standard_normal((n, 2)) * spread)
                X[: n // 6] += 6.0
                blocks.append(X)
        ratios = mcd._exchange_ratios
        search = mcd._best_exchange
        rows_scored, chunks_per_sweep = [], []

        def spy(h, q_cross, q_in, q_out):
            if q_cross.ndim == 2:  # a chunk; a sweep's known pairs come stacked
                rows_scored.append(q_cross.shape[0])
                chunks_per_sweep[-1] += 1
            return ratios(h, q_cross, q_in, q_out)

        def counted(*args):
            chunks_per_sweep.append(0)
            return search(*args)

        sweeps = []
        with mock.patch.object(mcd, "_exchange_ratios", spy), \
                mock.patch.object(mcd, "_best_exchange", counted), \
                mock.patch.object(mcd, "_PAIR_CHUNK", 1):
            for X in blocks:
                sweeps += self._fit_both_ways(X, h_from_fraction(X.shape[0], 2, 0.5))
        # one exchange search per candidate and sweep, each scoring its chunks
        assert len(chunks_per_sweep) == len(sweeps)
        assert max(rows_scored) == 3
        assert max(chunks_per_sweep) >= 20
        swapped_across_chunks = [
            k >= 2 and ratio < 1.0 - 1e-12 for k, (ratio, _, _) in zip(chunks_per_sweep, sweeps)
        ]
        assert sum(swapped_across_chunks) >= 10


def test_polish_memory_stays_linear_in_block_size():
    import tracemalloc

    rng = np.random.default_rng(36)
    n = 20_000
    Z = rng.standard_normal((n, 5))
    Z[: n // 10] = rng.standard_normal((n // 10, 5)) * 0.5 + 5.0
    h = h_from_fraction(n, 5, 0.5)
    tracemalloc.start()
    try:
        fit_mcd(Z, h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a dense (n - h) x h float64 matrix alone would be 800 MB
    assert peak < 32 * 2**20


class TestSmallestH:
    """The O(n) selection keeps the subset of a stable full sort."""

    @staticmethod
    def reference(d2, h):
        return np.sort(np.argsort(d2, kind="stable")[:h])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=40))
    def test_matches_stable_argsort_on_ties(self, values):
        from robustqda.mcd import _smallest_h

        d2 = np.array(values, dtype=np.float64)
        for h in range(1, d2.shape[0] + 1):
            got = _smallest_h(d2, h)
            assert got.dtype == np.intp
            assert np.array_equal(got, self.reference(d2, h)), (values, h)

    def test_ties_at_rank_h_keep_the_lowest_indices(self):
        from robustqda.mcd import _smallest_h

        d2 = np.array([3.0, 1.0, 2.0, 2.0, 0.0, 2.0])
        assert _smallest_h(d2, 3).tolist() == [1, 2, 4]
        assert _smallest_h(d2, 4).tolist() == [1, 2, 3, 4]


@st.composite
def _sort_matrices(draw):
    """Small matrices of tie-heavy, half-integer, signed-zero or
    continuous cells, some rows repeated, rows in any order."""
    n = draw(st.integers(1, 40))
    p = draw(st.integers(1, 4))
    cells = draw(st.sampled_from([
        st.integers(-2, 2).map(float),
        st.integers(-8, 8).map(lambda v: v / 2),
        st.sampled_from([-0.0, 0.0, 1.0]),
        st.one_of(st.sampled_from([-0.0, 0.0]),
                  st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)),
    ]))
    Z = np.array(draw(st.lists(cells, min_size=n * p, max_size=n * p)),
                 dtype=np.float64).reshape(n, p)
    repeated = draw(st.lists(st.integers(0, n - 1), max_size=n))
    Z = np.vstack([Z, Z[repeated]])
    return Z[draw(st.permutations(range(Z.shape[0])))]


class TestCanonicalOrder:
    """Sorting only the runs of tied first keys gives the permutation of a
    full ``np.lexsort``."""

    @settings(max_examples=400, deadline=None)
    @given(_sort_matrices())
    def test_matches_lexsort(self, Z):
        from robustqda.mcd import _canonical_order

        got = _canonical_order(Z)
        assert got.dtype == np.intp
        assert np.array_equal(got, np.lexsort(Z.T[::-1]))


class TestNonConvergenceIsLogged:
    def test_concentration_cap_warns_and_keeps_output(self, caplog):
        rng = np.random.default_rng(41)
        Z = rng.standard_normal((200, 3))
        Z[:30] += 6.0
        h = h_from_fraction(200, 3, 0.5)
        start = initial_starts(Z)[0]
        with caplog.at_level("WARNING", logger="robustqda.mcd"):
            capped = concentrated(Z[None], np.zeros(1, dtype=np.intp), h, 1)
        assert any("did not converge within 1 steps" in r.message for r in caplog.records)
        # the output is the subset after the one step, as before
        first = raw_from_subset(Z, np.sort(np.argsort(start.squared_distances(Z), kind="stable")[:h]))
        assert np.array_equal(capped.subset[0], c_step(Z, first).subset)
        caplog.clear()
        with caplog.at_level("WARNING", logger="robustqda.mcd"):
            concentrated(Z[None], np.zeros(1, dtype=np.intp), h, 100)
        assert not caplog.records

    def test_fit_mcd_with_one_step_warns(self, caplog):
        rng = np.random.default_rng(42)
        Z = rng.standard_normal((300, 4))
        Z[:60] = rng.standard_normal((60, 4)) * 0.2 + 5.0
        with caplog.at_level("WARNING", logger="robustqda.mcd"):
            fit_mcd(Z, h_from_fraction(300, 4, 0.5), max_csteps=1)
        assert any("did not converge" in r.message for r in caplog.records)

    def test_polish_refit_failure_warns_and_returns_input(self, caplog, monkeypatch):
        from robustqda import mcd

        rng = np.random.default_rng(43)
        Z = rng.standard_normal((120, 3))
        Z[:20] += 5.0
        h = h_from_fraction(120, 3, 0.5)
        c_alpha = consistency_factor(h, 120, 3)
        stack = concentrated(Z[None], np.zeros(1, dtype=np.intp), h, 100)
        est = mcd._loc_scat(stack, 0)
        subset, det = stack.subset[0].copy(), stack.det[0]
        args, _ = whitened(Z, mcd.RawEstimate(est, subset, det, c_alpha))
        assert mcd._best_exchange(*args)[0] < 1.0 - 1e-12  # the polish would swap

        def failing_refit(*args, **kwargs):
            fits = real_refit(*args, **kwargs)
            fits.error = [NotPositiveDefinite("refit made to fail")] * fits.det.size
            return fits

        real_refit = mcd._refit
        monkeypatch.setattr(mcd, "_refit", failing_refit)
        with caplog.at_level("WARNING", logger="robustqda.mcd"):
            mcd._polish(Z[None], stack, c_alpha)
        assert np.array_equal(stack.subset[0], subset)
        assert stack.det[0] == det
        assert np.array_equal(stack.sigma[0], est.sigma)
        assert any(
            "exchange polish stopped early" in r.message and "refit made to fail" in r.message
            for r in caplog.records
        )

    def test_polish_cap_warns_and_keeps_the_one_sweep_estimate(self, caplog):
        from robustqda import mcd

        rng = np.random.default_rng(45)
        Z = rng.standard_normal((120, 3))
        Z[:20] += 5.0
        h = h_from_fraction(120, 3, 0.5)
        c_alpha = consistency_factor(h, 120, 3)
        kinds = np.zeros(1, dtype=np.intp)
        full = concentrated(Z[None], kinds, h, 100)
        est = mcd.RawEstimate(mcd._loc_scat(full, 0), full.subset[0], full.det[0], c_alpha)
        with caplog.at_level("WARNING", logger="robustqda.mcd"):
            mcd._polish(Z[None], full, c_alpha)
        assert not caplog.records
        args, outside = whitened(Z, est)
        _, b, slot = mcd._best_exchange(*args)
        swapped = est.subset.copy()
        swapped[slot] = outside[b]
        one_sweep = raw_from_subset(Z, swapped)
        assert mcd._best_exchange(*whitened(Z, one_sweep)[0])[0] < 1.0 - 1e-12  # a second swap follows
        assert not np.array_equal(full.subset[0], one_sweep.subset)

        capped = concentrated(Z[None], kinds, h, 100)
        with caplog.at_level("WARNING", logger="robustqda.mcd"):
            mcd._polish(Z[None], capped, c_alpha, max_sweeps=1)
        assert any("did not converge within 1 sweeps" in r.message for r in caplog.records)
        assert np.array_equal(capped.subset[0], one_sweep.subset)
        assert np.array_equal(capped.sigma[0], one_sweep.loc_scat.sigma)
        assert capped.det[0] == one_sweep.det_uncorrected


class TestStackedFit:
    """A candidate fitted in a stack gets the bits it gets fitted alone."""

    @staticmethod
    def _assert_same(a, b):
        assert np.array_equal(a.subset, b.subset)
        for name in ("mu", "sigma", "chol", "inv_chol"):
            assert np.array_equal(getattr(a.loc_scat, name), getattr(b.loc_scat, name)), name
        assert a.loc_scat.log_det == b.loc_scat.log_det
        assert a.det_uncorrected == b.det_uncorrected
        assert a.c_alpha == b.c_alpha

    @staticmethod
    def _tied_blocks(n, q, seed):
        """Half-integer rows with duplicates, in canonical order, and q blocks of them."""
        from robustqda.block_mcd import split_blocks

        rng = np.random.default_rng(seed)
        X = np.round(rng.standard_normal((n, 3)) * 2.0) / 2.0
        X[: n // 8] = X[n // 8 : 2 * (n // 8)]
        X[: n // 10] += 4.0
        plan = split_blocks(n, q, np.random.default_rng(seed))
        hs = [h_from_fraction(size, 3, 0.5) for size in plan.sizes]
        return X[np.lexsort(X.T[::-1])], plan, hs

    @pytest.mark.parametrize("n, q", [(1203, 4), (640, 1), (2000, 7)])
    def test_stacked_candidate_equals_candidate_alone(self, n, q):
        from robustqda import mcd

        Zc, plan, hs = self._tied_blocks(n, q, seed=n)
        assert len(set(plan.sizes)) == (2 if n % q else 1)
        for m in set(plan.sizes):
            group = [b for b in range(q) if plan.sizes[b] == m]
            Zk = np.stack([Zc[plan.assignments[b]] for b in group for _ in range(2)])
            kinds = np.tile([0, 1], len(group))
            h = hs[group[0]]
            stacked = mcd._fit_stack(Zk, kinds, h)
            for k in range(kinds.size):
                self._assert_same(stacked[k], mcd._fit_stack(Zk[k : k + 1], kinds[k : k + 1], h)[0])

    def test_block_fits_do_not_depend_on_the_stack_budget(self, monkeypatch):
        from robustqda import mcd

        Zc, plan, hs = self._tied_blocks(1203, 4, seed=5)
        default = mcd._fit_blocks(Zc, plan.assignments, hs)
        assert len(mcd._plan_stacks(plan.sizes)) == 2  # one stack per block size
        m = max(plan.sizes)
        for budget, stacks in ((3 * m, 3), (1, 8)):
            monkeypatch.setattr(mcd, "_STACK_ROWS", budget)
            plan_stacks = mcd._plan_stacks(plan.sizes)
            assert len(plan_stacks) == stacks
            # some block has its two starts in different stacks
            assert any(stack[-1][1] == 0 for stack in plan_stacks)
            for a, b in zip(default, mcd._fit_blocks(Zc, plan.assignments, hs)):
                self._assert_same(a, b)

    def test_degenerate_candidates_beside_healthy_ones(self):
        import warnings

        from robustqda import mcd

        rng = np.random.default_rng(18)
        Zk = rng.standard_normal((4, 300, 3))
        Zk[:, :40] += 5.0
        Zk[1, :, 2] = 0.0
        Zk[3, :, 1] = 0.0
        kinds = np.array([1, 1, 0, 0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            stacked = mcd._fit_stack(Zk, kinds, 160)
            alone = [mcd._fit_stack(Zk[k : k + 1], kinds[k : k + 1], 160)[0] for k in range(4)]
        assert isinstance(stacked[1], DegenerateStart)
        assert str(stacked[1]) == "tanh correlation is undefined (constant column)"
        assert isinstance(stacked[3], NotPositiveDefinite)
        for k in (1, 3):
            assert type(stacked[k]) is type(alone[k]) and str(stacked[k]) == str(alone[k])
        for k in (0, 2):
            self._assert_same(stacked[k], alone[k])

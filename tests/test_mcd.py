"""Tests for the deterministic single-block MCD estimator."""
import itertools
import math

import numpy as np
import pytest

from robustqda.errors import (
    AllStartsDegenerate,
    DataError,
    DomainError,
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
        from robustqda.mcd import _concentrate, _smallest_h

        rng = np.random.default_rng(22)
        for _ in range(5):
            Z = rng.standard_normal((80, 3))
            Z[:10] = rng.standard_normal((10, 3)) * 0.3 + 6.0
            h = h_from_fraction(80, 3, 0.5)
            for start in initial_starts(Z):
                current = raw_from_subset(Z, _smallest_h(start.squared_distances(Z), h))
                for _ in range(100):
                    refined = c_step(Z, current)
                    done = np.array_equal(refined.subset, current.subset)
                    current = refined
                    if done:
                        break
                fast = _concentrate(Z, start, h, 100)
                assert np.array_equal(fast.subset, current.subset)
                assert fast.det_uncorrected == current.det_uncorrected
                assert fast.c_alpha == current.c_alpha
                assert np.array_equal(fast.sigma, current.sigma)
                assert np.array_equal(fast.mu, current.mu)

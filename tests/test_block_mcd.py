"""Tests for the block-parallel MCD pipeline."""
import os

import numpy as np
import pytest

from robustqda.block_mcd import (
    _kl_core,
    blockwise_mcd,
    default_block_count,
    median_pool,
    select_and_pool,
    split_blocks,
)
from robustqda.core import LocationScatter
from robustqda.errors import (
    BlocksTooSmall,
    DataError,
    DomainError,
    TooFewObservations,
)
from robustqda.mcd import consistency_factor, fit_mcd, h_from_fraction, reweight
from robustqda.robust_scale import standardize


def deviation(sigma_a, mu_a, sigma_b, mu_b) -> float:
    """The screening deviation of (sigma_a, mu_a) from (sigma_b, mu_b)."""
    return _kl_core(sigma_a, mu_a, [LocationScatter.from_sigma(mu_b, sigma_b)])[0]


def contaminated(seed: int, n: int = 1200, p: int = 3, frac: float = 0.15):
    rng = np.random.default_rng(seed)
    A = np.array([[1.0, 0.0, 0.0], [0.4, 1.2, 0.0], [-0.2, 0.3, 0.8]])[:p, :p]
    X = rng.standard_normal((n, p)) @ A.T
    k = int(frac * n)
    X[:k] = rng.standard_normal((k, p)) * 0.5 + 12.0
    return X, A @ A.T, k


class TestSplitBlocks:
    def test_partition_properties(self):
        rng = np.random.default_rng(0)
        blocks = split_blocks(103, 4, rng)
        assert len(blocks) == 4
        assert tuple(len(rows) for rows in blocks) == (26, 26, 26, 25)
        joined = np.concatenate(blocks)
        assert np.array_equal(np.sort(joined), np.arange(103))

    def test_single_block_identity(self):
        blocks = split_blocks(10, 1, np.random.default_rng(0))
        assert len(blocks) == 1
        assert np.array_equal(blocks[0], np.arange(10))

    def test_seed_controls_shuffle(self):
        a = split_blocks(60, 3, np.random.default_rng(5))
        b = split_blocks(60, 3, np.random.default_rng(5))
        c = split_blocks(60, 3, np.random.default_rng(6))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_too_small_blocks_rejected(self):
        with pytest.raises(BlocksTooSmall):
            split_blocks(50, 4, np.random.default_rng(0))

    def test_domain(self):
        with pytest.raises(DomainError):
            split_blocks(100, 0, np.random.default_rng(0))

    def test_blocks_list_rows_in_ascending_order(self):
        blocks = split_blocks(103, 4, np.random.default_rng(0))
        assert all(np.all(np.diff(rows) > 0) for rows in blocks)


class TestDefaultBlockCount:
    def test_small_n_collapses_to_one(self):
        assert default_block_count(30, 2) == 1

    def test_auto_blocks_reach_the_threading_crossover(self):
        from robustqda.mcd import _WORKER_BLOCK_ROWS

        for p in (1, 2, 5, 10):
            for n in (30, 999, 5_000, 9_999):
                assert default_block_count(n, p) == 1
            for n in (10_000, 10_001, 14_999, 15_000, 60_001):
                q = default_block_count(n, p)
                assert q > 1
                blocks = split_blocks(n, q, np.random.default_rng(0))
                assert min(len(rows) for rows in blocks) >= _WORKER_BLOCK_ROWS
        assert default_block_count(10**6, 2) == 10**6 // _WORKER_BLOCK_ROWS
        # at p = 300 the 20 p rows per block exceed the crossover, so the cap binds
        assert default_block_count(10**6, 300) == 10**6 // (20 * 300)

    def test_blocks_keep_minimum_rows(self):
        q = default_block_count(400, 5)
        assert 400 // max(q, 1) >= 20 * 5 or q == 1


class TestMedianPoolAndDeviation:
    def test_median_pool_entrywise(self):
        ests = [
            LocationScatter.from_sigma([0.0, 0.0], np.eye(2)),
            LocationScatter.from_sigma([1.0, 2.0], 2.0 * np.eye(2)),
            LocationScatter.from_sigma([5.0, -1.0], 3.0 * np.eye(2)),
        ]
        mu, sigma = median_pool(ests)
        assert np.array_equal(mu, [1.0, 0.0])
        assert np.array_equal(sigma, 2.0 * np.eye(2))

    def test_kl_frozen_value(self):
        v = deviation(0.5 * np.eye(2), np.zeros(2), np.eye(2), np.zeros(2))
        assert v == pytest.approx(0.3862943611198906, abs=1e-12)

    def test_kl_zero_at_equality_and_positive_elsewhere(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            A = rng.standard_normal((3, 3))
            sigma = A @ A.T + np.eye(3)
            mu = rng.standard_normal(3)
            assert deviation(sigma, mu, sigma, mu) == pytest.approx(0.0, abs=1e-9)
            B = rng.standard_normal((3, 3))
            other = B @ B.T + np.eye(3)
            assert deviation(other, mu, sigma, mu) > -1e-12

    def test_one_block_deviation_is_never_negative(self):
        # The median of one block is that block: the deviation is 0 up to
        # rounding, which must not show as a negative value.
        for seed in range(6):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((2000, 3))
            X[:160] += 6.0
            (dev,) = blockwise_mcd(X, blocks=1).raw.kl_deviations
            assert 0.0 <= dev < 1e-12

    def test_kl_mean_shift_term(self):
        v = deviation(np.eye(2), np.array([3.0, 4.0]), np.eye(2), np.zeros(2))
        assert v == pytest.approx(25.0, abs=1e-12)

    def test_indefinite_first_argument_gives_inf(self):
        v = deviation(np.diag([1.0, -1.0]), np.zeros(2), np.eye(2), np.zeros(2))
        assert v == np.inf


class TestSelectAndPool:
    def test_single_pass_pooling_matches_direct_moments(self):
        X, _, _ = contaminated(2, n=240, p=3)
        rng = np.random.default_rng(3)
        blocks = split_blocks(240, 4, rng)
        estimates = [fit_mcd(X[rows], h_from_fraction(len(rows), 3, 0.5)) for rows in blocks]
        pooled = select_and_pool(X, blocks, estimates)
        assert len(pooled.contributing_blocks) == 2
        rows = X[pooled.subset]
        n_selected = sum(len(blocks[b - 1]) for b in pooled.contributing_blocks)
        c = consistency_factor(rows.shape[0], n_selected, 3)
        assert np.allclose(pooled.loc_scat.mu, rows.mean(axis=0), atol=1e-10)
        assert np.allclose(pooled.loc_scat.sigma, c * np.cov(rows.T, ddof=1), atol=1e-10)

    def test_estimate_count_must_match_plan(self):
        X = np.random.default_rng(0).standard_normal((100, 2))
        blocks = split_blocks(100, 2, np.random.default_rng(0))
        with pytest.raises(DataError):
            select_and_pool(X, blocks, [])


class TestBlockwiseMcd:
    def test_recovers_truth_under_contamination(self):
        X, sigma_true, k = contaminated(4)
        res = blockwise_mcd(X, blocks=4, rng=0)
        assert np.linalg.norm(res.estimate.mu) < 0.2
        assert np.allclose(res.estimate.sigma, sigma_true, atol=0.3)
        assert not res.weights[:k].any()
        assert res.weights.sum() > 0.8 * (X.shape[0] - k)

    def test_seeded_reproducibility(self):
        X, _, _ = contaminated(5)
        a = blockwise_mcd(X, blocks=4, rng=7)
        b = blockwise_mcd(X, blocks=4, rng=7)
        assert np.array_equal(a.estimate.mu, b.estimate.mu)
        assert np.array_equal(a.estimate.sigma, b.estimate.sigma)
        assert np.array_equal(a.weights, b.weights)
        assert a.diagnostics == b.diagnostics

    def test_permutation_invariance_exact(self):
        X, _, _ = contaminated(6, n=600)
        base = blockwise_mcd(X, blocks=3, rng=1)
        rng = np.random.default_rng(8)
        for _ in range(3):
            perm = rng.permutation(X.shape[0])
            res = blockwise_mcd(X[perm], blocks=3, rng=1)
            assert np.array_equal(res.estimate.mu, base.estimate.mu)
            assert np.array_equal(res.estimate.sigma, base.estimate.sigma)
            assert np.array_equal(res.weights, base.weights[perm])

    def test_affine_equivariance(self):
        X, _, _ = contaminated(7, n=800)
        base = blockwise_mcd(X, blocks=2, rng=3)
        s = np.array([0.5, 3.0, 1.7])
        b = np.array([-4.0, 0.0, 11.0])
        res = blockwise_mcd(X * s + b, blocks=2, rng=3)
        assert np.allclose(res.estimate.mu, s * base.estimate.mu + b, rtol=1e-10, atol=1e-10)
        assert np.allclose(res.estimate.sigma, base.estimate.sigma * np.outer(s, s), rtol=1e-10)
        assert np.array_equal(res.weights, base.weights)

    def test_single_block_matches_plain_fit(self):
        X, _, _ = contaminated(9, n=300, p=3)
        res = blockwise_mcd(X, blocks=1, rng=0)
        # reproduce by hand: standardize, fit, reweight, map back
        from robustqda.robust_scale import destandardize_estimate, fit_standardizer, standardize

        st = fit_standardizer(X)
        Z = standardize(X, st)
        raw = fit_mcd(Z, h_from_fraction(300, 3, 0.5))
        refined, weights = reweight(Z, raw)
        want = destandardize_estimate(refined, st)
        assert np.allclose(res.estimate.mu, want.mu, atol=1e-12)
        assert np.allclose(res.estimate.sigma, want.sigma, atol=1e-12)
        assert np.array_equal(res.weights, weights)
        assert np.array_equal(res.raw.subset, raw.subset)

    def test_pooled_subset_uses_caller_row_numbers(self):
        X, _, k = contaminated(10, n=400, p=3)
        res = blockwise_mcd(X, blocks=2, rng=0)
        # the h-subset must avoid the planted contaminated rows entirely
        assert np.all(res.raw.subset >= k)
        assert np.unique(res.raw.subset).shape[0] == res.raw.h

    def test_diagnostics_shapes(self):
        X, _, _ = contaminated(11, n=500, p=3)
        res = blockwise_mcd(X, blocks=4, rng=0)
        d = res.diagnostics
        assert d.q == 4
        assert len(d.block_sizes) == len(d.h_values) == len(d.block_dets) == 4
        assert len(res.raw.kl_deviations) == 4
        assert len(res.raw.contributing_blocks) == 2

    def test_worker_count_does_not_change_result(self, monkeypatch):
        X, _, _ = contaminated(12, n=600, p=3)
        monkeypatch.setenv("ROBUST_QDA_THREADS", "1")
        a = blockwise_mcd(X, blocks=3, rng=2)
        monkeypatch.setenv("ROBUST_QDA_THREADS", "4")
        b = blockwise_mcd(X, blocks=3, rng=2)
        assert np.array_equal(a.estimate.mu, b.estimate.mu)
        assert np.array_equal(a.estimate.sigma, b.estimate.sigma)
        assert np.array_equal(a.weights, b.weights)

    def test_needs_enough_rows(self):
        with pytest.raises(TooFewObservations):
            blockwise_mcd(np.random.default_rng(0).standard_normal((6, 3)))


class TestCanonicalOrderOnce:
    def test_block_counts_that_are_not_positive_integers(self):
        X, _, _ = contaminated(6, n=200)
        for blocks in ("x", "4", None, 2.5, 0, -1, float("nan"), float("inf"), True, False):
            with pytest.raises(DomainError):
                blockwise_mcd(X, blocks=blocks)

    def test_seeds_that_are_not_non_negative_integers(self):
        X, _, _ = contaminated(6, n=200)
        for seed in (-1, -(2**40), 1.5, "3", None, True, np.random.default_rng(0)):
            with pytest.raises(DomainError, match="seed must be a non-negative integer"):
                blockwise_mcd(X, blocks=2, rng=seed)
        assert blockwise_mcd(X, blocks=2, rng=np.int64(3)).weights.sum() > 0

    def test_one_sort_per_class_and_block_fits_unchanged(self, monkeypatch):
        from robustqda import mcd

        X, _, _ = contaminated(9, n=1200)
        X = np.round(X * 2.0) / 2.0  # ties and duplicate rows
        sorts = []
        real = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(1) or real(keys))
        res = blockwise_mcd(X, blocks=4, rng=11)
        assert len(sorts) == 1
        monkeypatch.setattr(np, "lexsort", real)
        # Fitting each block from its rows in shuffled order, through the
        # public fit, gives the same determinants.
        Z = standardize(X, res.standardizer)
        Zc = Z[np.lexsort(Z.T[::-1])]
        blocks = split_blocks(1200, 4, np.random.default_rng(np.random.SeedSequence(11)))
        for b, rows in enumerate(blocks):
            shuffled = np.random.default_rng(b).permutation(rows)
            est = fit_mcd(Zc[shuffled], h_from_fraction(rows.shape[0], 3, 0.5))
            assert est.det_uncorrected == res.diagnostics.block_dets[b]


class TestPoolingComputedOnce:
    def test_pooled_kl_deviations_match_median_pool(self):
        X, _, _ = contaminated(6, n=320, p=3)
        blocks = split_blocks(320, 4, np.random.default_rng(8))
        estimates = [fit_mcd(X[rows], h_from_fraction(len(rows), 3, 0.5)) for rows in blocks]
        pooled = select_and_pool(X, blocks, estimates)
        mu_med, sigma_med = median_pool([e.loc_scat for e in estimates])
        expected = tuple(deviation(sigma_med, mu_med, e.loc_scat.sigma, e.loc_scat.mu) for e in estimates)
        assert pooled.kl_deviations == expected

    def test_select_and_pool_takes_one_log_determinant(self):
        from unittest import mock

        X, _, _ = contaminated(6, n=320, p=3)
        blocks = split_blocks(320, 4, np.random.default_rng(8))
        estimates = [fit_mcd(X[rows], h_from_fraction(len(rows), 3, 0.5)) for rows in blocks]
        with mock.patch.object(np.linalg, "slogdet", wraps=np.linalg.slogdet) as spy:
            select_and_pool(X, blocks, estimates)
        assert spy.call_count == 1

    def test_blockwise_mcd_pools_once(self):
        from unittest import mock

        from robustqda import block_mcd

        X, _, _ = contaminated(7, n=400, p=3)
        with mock.patch.object(block_mcd, "median_pool", wraps=median_pool) as spy:
            res = blockwise_mcd(X, blocks=4, rng=1)
        assert spy.call_count == 1
        assert len(res.raw.kl_deviations) == 4


class TestNearCollinearData:
    """Two columns 1e-6 apart: a concentration step can raise the
    determinant by rounding alone."""

    def test_a_rising_step_stops_its_candidate_and_each_estimate_logs_once(self, caplog):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(4000)
        X = np.column_stack([x, x + 1e-6 * rng.standard_normal(4000), rng.standard_normal(4000)])
        X[:300] += 5.0
        with caplog.at_level("WARNING", logger="robustqda"):
            res = blockwise_mcd(X, blocks=4, rng=0)
        messages = [(r.name, r.getMessage()) for r in caplog.records]
        assert any(name == "robustqda.mcd" and "raised the determinant" in m for name, m in messages)
        # Pooling, reweighting and mapping back each log at most once.
        assert sum("sigma is ill-conditioned" in m for _, m in messages) <= 3
        assert not res.weights[:300].any()


class TestThreadedPath:
    """Small blocks run serially; forcing them onto the pool changes no bit."""

    @staticmethod
    def _fits(X, y):
        from robustqda.qda import fit_qda

        res = blockwise_mcd(X, blocks=4, rng=3)
        model = fit_qda(X, y, mode="robust", blocks=4, seed=5)
        return res, model

    @staticmethod
    def _assert_same(a, b):
        res_a, model_a = a
        res_b, model_b = b
        for name in ("mu", "sigma", "chol"):
            assert np.array_equal(getattr(res_a.estimate, name), getattr(res_b.estimate, name))
        assert res_a.estimate.log_det == res_b.estimate.log_det
        assert np.array_equal(res_a.weights, res_b.weights)
        assert np.array_equal(res_a.raw.subset, res_b.raw.subset)
        assert res_a.diagnostics == res_b.diagnostics
        for ca, cb in zip(model_a.classes, model_b.classes):
            assert (ca.prior, ca.n_raw, ca.n_inlier, ca.blocks) == (cb.prior, cb.n_raw, cb.n_inlier, cb.blocks)
            assert np.array_equal(ca.loc_scat.mu, cb.loc_scat.mu)
            assert np.array_equal(ca.loc_scat.sigma, cb.loc_scat.sigma)

    def test_thread_counts_and_serial_path_agree(self, monkeypatch):
        from unittest import mock

        from robustqda import mcd

        X, _, _ = contaminated(13, n=800, p=3)
        y = np.where(np.arange(800) % 3 == 0, 2, 1)
        assert 800 // 4 < mcd._WORKER_BLOCK_ROWS
        with mock.patch.object(mcd, "ordered_map") as pool:
            serial = self._fits(X, y)
        assert pool.call_count == 0
        monkeypatch.setattr(mcd, "_WORKER_BLOCK_ROWS", 0)
        # Two candidates of the 200-row blocks per stack: four stacks, so
        # that two and four workers each get some.
        monkeypatch.setattr(mcd, "_STACK_ROWS", 400)
        for workers in ("1", "2", "4"):
            monkeypatch.setenv("ROBUST_QDA_THREADS", workers)
            with mock.patch.object(mcd, "ordered_map", wraps=mcd.ordered_map) as pool:
                threaded = self._fits(X, y)
            assert pool.call_count == 3  # one blockwise_mcd call, two classes
            self._assert_same(serial, threaded)

    def test_degenerate_blocks_raise_the_same_error_at_every_cap(self, monkeypatch):
        """Blocks of a constant class fail the same way on forked workers as
        in-process: both starts of every block end in ``DegenerateStart``,
        which the workers send back.  ``blockwise_mcd`` stops a constant
        column at ``ZeroScale`` before any block fit, so the blocks go to
        the pool through ``mcd._fit_blocks``, with its threshold at 0."""
        from unittest import mock

        from robustqda import _threads, mcd
        from robustqda.errors import AllStartsDegenerate

        Z = np.full((240, 3), 2.0)
        blocks = tuple(np.arange(b, 240, 4) for b in range(4))
        monkeypatch.setattr(mcd, "_WORKER_BLOCK_ROWS", 0)
        monkeypatch.setattr(mcd, "_STACK_ROWS", 120)  # two candidates per stack: four stacks
        seen = []
        for cap in ("1", "2", "3"):
            monkeypatch.setenv("ROBUST_QDA_THREADS", cap)
            with mock.patch.object(_threads.os, "fork", wraps=os.fork) as fork:
                with pytest.raises(AllStartsDegenerate) as info:
                    mcd._fit_blocks(Z, blocks, (40,) * 4)
            seen.append((fork.call_count, str(info.value)))
        message = "both initial scatter estimates are degenerate"
        assert seen == [(0, message), (2, message), (3, message)]

    def test_fit_mcd_takes_the_pool_by_the_same_rule(self, monkeypatch):
        """A block fitted alone forks like the blocks of ``blockwise_mcd``:
        with the threshold at 0 and each of its two candidates a stack of
        its own, two workers at cap 2, and the same bits as at cap 1."""
        from unittest import mock

        from robustqda import _threads, mcd

        X, _, _ = contaminated(15, n=200, p=3)
        monkeypatch.setattr(mcd, "_WORKER_BLOCK_ROWS", 0)
        monkeypatch.setattr(mcd, "_STACK_ROWS", 120)
        fits = []
        for cap in ("1", "2"):
            monkeypatch.setenv("ROBUST_QDA_THREADS", cap)
            with mock.patch.object(_threads.os, "fork", wraps=os.fork) as fork:
                fits.append(fit_mcd(X, 101))
            assert fork.call_count == (0 if cap == "1" else 2)
        serial, pooled = fits
        for name in ("mu", "sigma", "chol", "inv_chol"):
            assert np.array_equal(getattr(serial.loc_scat, name), getattr(pooled.loc_scat, name))
        assert serial.loc_scat.log_det == pooled.loc_scat.log_det
        assert serial.det_uncorrected == pooled.det_uncorrected
        assert np.array_equal(serial.subset, pooled.subset)

    def test_serial_path_still_validates_thread_env(self, monkeypatch):
        from robustqda.errors import ConfigError

        X, _, _ = contaminated(14, n=400, p=3)
        for bad in ("0", "two"):
            monkeypatch.setenv("ROBUST_QDA_THREADS", bad)
            with pytest.raises(ConfigError):
                blockwise_mcd(X, blocks=4, rng=0)
            with pytest.raises(ConfigError):
                fit_mcd(X, 201)


class TestAutoBlocksIgnoreTheMachine:
    """``blocks="auto"`` reads the data's shape only, never the core count."""

    @staticmethod
    def _assert_same(a, b):
        for name in ("mu", "sigma", "chol"):
            assert np.array_equal(getattr(a.estimate, name), getattr(b.estimate, name))
        assert a.estimate.log_det == b.estimate.log_det
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.raw.subset, b.raw.subset)
        assert a.diagnostics == b.diagnostics

    def test_auto_is_the_default_block_count(self):
        X, _, _ = contaminated(21, n=10_400, p=2)
        q = default_block_count(10_400, 2)
        assert q == 2
        auto = blockwise_mcd(X, blocks="auto", rng=7)
        assert auto.diagnostics.q == q
        self._assert_same(auto, blockwise_mcd(X, blocks=q, rng=7))

    def test_core_count_changes_no_bit(self, monkeypatch):
        monkeypatch.delenv("ROBUST_QDA_THREADS", raising=False)
        X, _, _ = contaminated(22, n=10_400, p=2)
        runs = []
        for cores in (1, 64):
            monkeypatch.setattr(os, "cpu_count", lambda cores=cores: cores)
            qs = (default_block_count(10_400, 2), default_block_count(10**6, 2))
            runs.append((qs, blockwise_mcd(X, blocks="auto", rng=7)))
        (q_one, res_one), (q_many, res_many) = runs
        assert q_one == q_many == (2, 200)
        self._assert_same(res_one, res_many)

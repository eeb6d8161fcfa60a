"""Tests for the QDA classifier with its reserved outlier class."""
import math

import numpy as np
import pytest

from robustqda.core import LocationScatter, chi2_quantile, mvn_sample, substream
from robustqda.errors import (
    DataError,
    DimensionMismatch,
    DomainError,
    EmptyClassAfterTrim,
)
from robustqda import qda
from robustqda.lbplot import lb_points
from robustqda.qda import (
    OUTLIER_LABEL,
    classify_rows,
    fit_qda,
)


def two_gaussians(seed: int = 0, n1: int = 400, n2: int = 600):
    est1 = LocationScatter.from_sigma([0.0, 0.0], [[1.0, 0.3], [0.3, 1.0]])
    est2 = LocationScatter.from_sigma([5.0, 1.0], [[1.5, -0.2], [-0.2, 0.7]])
    X = np.vstack(
        [mvn_sample(substream(seed, 1), est1, n1), mvn_sample(substream(seed, 2), est2, n2)]
    )
    y = np.concatenate([np.ones(n1, dtype=int), np.full(n2, 2, dtype=int)])
    return X, y


class TestLabelValidation:
    def test_gap_in_labels(self):
        X, y = two_gaussians()
        y = np.where(y == 2, 3, y)
        with pytest.raises(DataError, match="1..G contiguous"):
            fit_qda(X, y, mode="classical")

    def test_zero_label_reserved(self):
        X, y = two_gaussians()
        y[0] = 0
        with pytest.raises(DataError, match="reserved"):
            fit_qda(X, y, mode="classical")

    def test_single_class_rejected(self):
        X, y = two_gaussians()
        with pytest.raises(DataError):
            fit_qda(X, np.ones_like(y), mode="classical")

    def test_non_integer_labels_rejected(self):
        X, y = two_gaussians()
        with pytest.raises(DataError):
            fit_qda(X, y + 0.5, mode="classical")


class TestClassicalMode:
    def test_moments_match_numpy(self):
        X, y = two_gaussians(3)
        model = fit_qda(X, y, mode="classical")
        for g in (1, 2):
            rows = X[y == g]
            cm = model.classes[g - 1]
            assert np.allclose(cm.loc_scat.mu, rows.mean(axis=0), atol=1e-12)
            assert np.allclose(cm.loc_scat.sigma, np.cov(rows.T, ddof=1), atol=1e-12)
            assert cm.prior == pytest.approx(rows.shape[0] / X.shape[0], abs=1e-15)

    def test_scores_match_direct_formula(self):
        X, y = two_gaussians(4)
        model = fit_qda(X, y, mode="classical")
        pts = np.random.default_rng(0).uniform(-3, 8, (200, 2))
        _, scores, _, _ = classify_rows(model, pts)
        for g in (1, 2):
            rows = X[y == g]
            mu = rows.mean(axis=0)
            sigma = np.cov(rows.T, ddof=1)
            inv = np.linalg.inv(sigma)
            _, logdet = np.linalg.slogdet(sigma)
            prior = rows.shape[0] / X.shape[0]
            want = (
                -0.5 * logdet
                - 0.5 * np.einsum("ij,jk,ik->i", pts - mu, inv, pts - mu)
                + math.log(prior)
            )
            assert np.max(np.abs(scores[:, g - 1] - want)) < 1e-10

    def test_discriminant_score_single_point(self):
        X, y = two_gaussians(5)
        model = fit_qda(X, y, mode="classical")
        x = np.array([1.0, 0.5])
        _, scores, _, _ = classify_rows(model, x[None, :])
        for g in (1, 2):
            ls, prior = model.classes[g - 1].loc_scat, model.classes[g - 1].prior
            want = -0.5 * ls.log_det - 0.5 * ls.squared_distances(x)[0] + math.log(prior)
            assert scores[0, g - 1] == pytest.approx(want, abs=1e-12)


class TestOutlierRule:
    def test_class_zero_iff_min_rd_exceeds_cutoff(self):
        X, y = two_gaussians(6)
        model = fit_qda(X, y, mode="classical")
        pts = np.random.default_rng(1).uniform(-20, 25, (10000, 2))
        labels, _, rd, min_rd = classify_rows(model, pts)
        cutoff = math.sqrt(chi2_quantile(2, 0.99))
        assert model.outlier_cutoff == pytest.approx(cutoff, abs=1e-12)
        assert np.array_equal(labels == OUTLIER_LABEL, min_rd > cutoff)
        assert np.array_equal(min_rd, rd.min(axis=1))

    def test_far_point_is_outlier(self):
        X, y = two_gaussians(7)
        model = fit_qda(X, y, mode="robust", blocks=1, seed=0)
        labels, _, _, min_rd = classify_rows(model, [[500.0, -300.0]])
        assert labels[0] == OUTLIER_LABEL
        assert min_rd[0] > model.outlier_cutoff

    def test_quantile_is_configurable(self, monkeypatch):
        X, y = two_gaussians(8)
        monkeypatch.setattr(qda, "OUTLIER_QUANTILE", 0.9)
        strict = fit_qda(X, y, mode="classical")
        monkeypatch.setattr(qda, "OUTLIER_QUANTILE", 0.999)
        loose = fit_qda(X, y, mode="classical")
        assert (strict.outlier_quantile, loose.outlier_quantile) == (0.9, 0.999)
        assert strict.outlier_cutoff < loose.outlier_cutoff
        pts = np.random.default_rng(2).uniform(-15, 20, (2000, 2))
        n_strict = int((classify_rows(strict, pts)[0] == 0).sum())
        n_loose = int((classify_rows(loose, pts)[0] == 0).sum())
        assert n_strict >= n_loose


class TestTiesAndBias:
    def test_argmax_tie_goes_to_smaller_label(self):
        rng = np.random.default_rng(3)
        X1 = rng.standard_normal((200, 2)) + [-3.0, 0.0]
        X2 = (X1 - [-3.0, 0.0]) + [3.0, 0.0]  # mirror class, same shape
        X = np.vstack([X1, X2])
        y = np.concatenate([np.ones(200, dtype=int), np.full(200, 2, dtype=int)])
        model = fit_qda(X, y, mode="classical")
        # on the exact midpoint hyperplane the scores tie up to rounding;
        # nudge to a literal tie by evaluating a model with identical classes
        from dataclasses import replace

        cm = model.classes[0]
        twin = replace(model, classes=(cm, cm))
        labels, scores, _, _ = classify_rows(twin, np.zeros((5, 2)))
        assert np.array_equal(scores[:, 0], scores[:, 1])
        assert np.all(labels == 1)

    def test_label_bias_zero_iff_argmax_consistent(self):
        X, y = two_gaussians(9)
        model = fit_qda(X, y, mode="classical")
        pts = np.random.default_rng(4).uniform(-5, 10, (500, 2))
        _, scores, _, _ = classify_rows(model, pts)
        arg = np.argmax(scores, axis=1) + 1
        # Query every point under its argmax class and under the other one.
        for given in (arg, 3 - arg):
            for g in (1, 2):
                spec = lb_points(model, pts, given, g)
                rows = spec.row
                assert np.array_equal(spec.lb == 0.0, spec.predicted == g)
                assert np.array_equal(spec.lb == 0.0, arg[rows] == g)
                expected = np.sqrt(scores[rows].max(axis=1) - scores[rows, g - 1])
                assert np.allclose(spec.lb, expected, rtol=0, atol=1e-12)

    def test_label_bias_rejects_unknown_class(self):
        X, y = two_gaussians(10)
        model = fit_qda(X, y, mode="classical")
        for given in (0, 3):
            with pytest.raises(DataError, match="outside 1..2"):
                lb_points(model, [[0.0, 0.0]], [given], given)


class TestRobustMode:
    def test_contaminated_training_data(self):
        X, y = two_gaussians(11, n1=800, n2=900)
        rng = np.random.default_rng(5)
        bad = rng.choice(800, 120, replace=False)
        X[bad] = rng.standard_normal((120, 2)) + [30.0, -20.0]
        robust = fit_qda(X, y, mode="robust", blocks=1, seed=0)
        classical = fit_qda(X, y, mode="classical")
        true_sigma1 = np.array([[1.0, 0.3], [0.3, 1.0]])
        err_r = np.abs(robust.classes[0].loc_scat.sigma - true_sigma1).max()
        err_c = np.abs(classical.classes[0].loc_scat.sigma - true_sigma1).max()
        assert err_r < 0.2
        assert err_c > 5.0

    def test_priors_come_from_trimmed_counts(self):
        X, y = two_gaussians(12)
        model = fit_qda(X, y, mode="robust", blocks=1, seed=0)
        kept = np.array([c.n_inlier for c in model.classes], dtype=float)
        assert np.allclose(model.priors, kept / kept.sum(), atol=1e-15)
        assert all(c.n_inlier <= c.n_raw for c in model.classes)

    def test_seed_and_blocks_recorded(self):
        X, y = two_gaussians(13)
        model = fit_qda(X, y, mode="robust", blocks=2, seed=9)
        assert model.seed == 9
        assert model.blocks_requested == "2"
        assert all(c.blocks == 2 for c in model.classes)
        again = fit_qda(X, y, mode="robust", blocks=2, seed=9)
        for a, b in zip(model.classes, again.classes):
            assert np.array_equal(a.loc_scat.mu, b.loc_scat.mu)
            assert np.array_equal(a.loc_scat.sigma, b.loc_scat.sigma)

    def test_error_is_prefixed_with_class(self):
        X, y = two_gaussians(14, n1=30, n2=600)
        X[y == 1] = np.ones((30, 2))  # degenerate class 1
        with pytest.raises(Exception, match="class 1"):
            fit_qda(X, y, mode="robust", blocks=1)


class TestRobustPriors:
    def test_trimming_rule(self, monkeypatch):
        X, y = two_gaussians(15)
        monkeypatch.setattr(qda, "OUTLIER_QUANTILE", 0.5)
        model = fit_qda(X, y, mode="robust", blocks=1, seed=0)
        cutoff = model.outlier_cutoff
        kept = []
        for g in (1, 2):
            rows = X[y == g]
            kept.append(int((model.classes[g - 1].loc_scat.distances(rows) <= cutoff).sum()))
        kept = np.array(kept, dtype=float)
        assert 0 < kept.sum() < X.shape[0]
        assert np.allclose(model.priors, kept / kept.sum(), atol=1e-15)

    def test_all_trimmed_class_raises(self, monkeypatch):
        X, y = two_gaussians(16)
        monkeypatch.setattr(qda, "OUTLIER_QUANTILE", 1e-12)
        with pytest.raises(EmptyClassAfterTrim, match="class 1"):
            fit_qda(X, y, mode="robust", blocks=1)


class TestInputChecks:
    def test_mode_validation(self):
        X, y = two_gaussians(17)
        with pytest.raises(DataError):
            fit_qda(X, y, mode="fast")

    def test_block_count_that_is_not_an_integer(self):
        X, y = two_gaussians(17)
        with pytest.raises(DomainError, match="class 1"):
            fit_qda(X, y, mode="robust", blocks="x")

    @pytest.mark.parametrize("mode", ["robust", "classical"])
    def test_negative_seed(self, mode):
        X, y = two_gaussians(17)
        with pytest.raises(DomainError, match="seed must be a non-negative integer, got -1"):
            fit_qda(X, y, mode=mode, seed=-1)

    @pytest.mark.parametrize("blocks", [True, "x", 0, 2.5])
    def test_classical_mode_checks_blocks(self, blocks):
        X, y = two_gaussians(17)
        with pytest.raises(DomainError, match="q must be a positive integer"):
            fit_qda(X, y, mode="classical", blocks=blocks)

    @pytest.mark.parametrize("h_frac", [9.0, 1.0, 0.4, float("nan")])
    def test_classical_mode_checks_h_frac(self, h_frac):
        X, y = two_gaussians(17)
        with pytest.raises(DomainError, match=r"coverage fraction must lie in \[0.5, 1\)"):
            fit_qda(X, y, mode="classical", h_frac=h_frac)

    def test_classical_mode_records_valid_options_unchanged(self):
        X, y = two_gaussians(17)
        model = fit_qda(X, y, mode="classical", blocks=3, h_frac=0.75, seed=4)
        assert (model.blocks_requested, model.h_frac, model.seed) == ("3", 0.75, 4)
        assert fit_qda(X, y, mode="classical").blocks_requested == "auto"

    def test_column_mismatch_at_predict(self):
        X, y = two_gaussians(18)
        model = fit_qda(X, y, mode="classical")
        with pytest.raises(DimensionMismatch):
            classify_rows(model, np.ones((3, 5)))

    def test_classify_matches_classify_rows(self):
        X, y = two_gaussians(19)
        model = fit_qda(X, y, mode="classical")
        pts = np.random.default_rng(6).uniform(-4, 9, (20, 2))
        labels, scores, rd, min_rd = classify_rows(model, pts)
        for i in range(20):
            label, row_scores, row_rd, row_min_rd = classify_rows(model, pts[i : i + 1])
            assert label[0] == labels[i]
            assert np.allclose(row_scores[0], scores[i], rtol=1e-12, atol=0)
            assert np.allclose(row_rd[0], rd[i], rtol=1e-12, atol=0)
            assert row_min_rd[0] == pytest.approx(min_rd[i], rel=1e-12)

    def test_one_row_scores_are_the_bits_of_classify_rows(self):
        X, y = two_gaussians(20)
        model = fit_qda(X, y, mode="classical")
        pts = np.random.default_rng(7).uniform(-4, 9, (500, 2))
        labels, scores, rd, min_rd = classify_rows(model, pts)
        for i in range(500):
            label, row_scores, row_rd, row_min_rd = classify_rows(model, pts[i : i + 1])
            assert (label[0], row_min_rd[0]) == (labels[i], min_rd[i])
            assert np.array_equal(row_scores[0], scores[i]) and np.array_equal(row_rd[0], rd[i])
            for g in (1, 2):
                lone = lb_points(model, pts[i : i + 1], [g], g)
                assert lone.lb[0] == math.sqrt(scores[i].max() - scores[i, g - 1])

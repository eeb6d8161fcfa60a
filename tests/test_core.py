"""Tests for the shared numeric foundations."""
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import robustqda
from robustqda.core import (
    LocationScatter,
    as_data_matrix,
    chi2_cdf,
    chi2_quantile,
    distinct,
    median,
    mvn_sample,
    substream,
)
from robustqda.errors import (
    DataError,
    DimensionMismatch,
    DomainError,
    NotPositiveDefinite,
    NumericError,
)


def chi2_quantile_oracle(dof: int, prob: float) -> float:
    """Independent quantile: bisection on the regularized incomplete gamma."""
    lo, hi = 0.0, 1e4
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if special.gammainc(dof / 2.0, mid / 2.0) < prob:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_numpy_runtime_warnings_are_errors_in_this_suite():
    # pyproject.toml's filterwarnings turns every RuntimeWarning into an
    # error, so a test that hits a numeric warning fails.
    with pytest.raises(RuntimeWarning, match="divide by zero"):
        np.log(np.zeros(1))


class TestAsDataMatrix:
    def test_accepts_lists(self):
        X = as_data_matrix([[1.0, 2.0], [3.0, 4.0]])
        assert X.dtype == np.float64
        assert X.shape == (2, 2)

    def test_rejects_1d(self):
        with pytest.raises(DimensionMismatch):
            as_data_matrix(np.arange(4.0))

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            as_data_matrix(np.empty((0, 3)))

    def test_rejects_nan_with_position(self):
        X = np.ones((4, 3))
        X[2, 1] = np.nan
        with pytest.raises(DataError, match="row 2, column 1"):
            as_data_matrix(X)

    def test_rejects_inf(self):
        X = np.ones((2, 2))
        X[0, 0] = np.inf
        with pytest.raises(DataError):
            as_data_matrix(X)


class TestChi2:
    def test_matches_bisection_oracle(self):
        for dof in (1, 2, 3, 5, 10, 30):
            for prob in (0.01, 0.5, 0.9, 0.975, 0.99):
                got = chi2_quantile(dof, prob)
                want = chi2_quantile_oracle(dof, prob)
                assert got == pytest.approx(want, abs=1e-10 * max(1.0, want))

    def test_frozen_values(self):
        assert chi2_quantile(5, 0.99) == pytest.approx(15.086272469388973, abs=1e-12)
        assert chi2_quantile(1, 0.5) == pytest.approx(0.4549364231195727, abs=1e-12)
        assert chi2_quantile(5, 0.975) == pytest.approx(12.832501994030027, abs=1e-12)
        assert math.sqrt(chi2_quantile(2, 0.99)) == pytest.approx(3.0348542587702925, abs=1e-12)
        assert math.sqrt(chi2_quantile(5, 0.99)) == pytest.approx(3.884105105347819, abs=1e-12)

    def test_cdf_inverts_quantile(self):
        for prob in (0.1, 0.5, 0.99):
            assert chi2_cdf(chi2_quantile(4, prob), 4) == pytest.approx(prob, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            chi2_quantile(0, 0.5)
        with pytest.raises(DomainError):
            chi2_quantile(3, 0.0)
        with pytest.raises(DomainError):
            chi2_quantile(3, 1.0)
        with pytest.raises(DomainError):
            chi2_cdf(1.0, -1)


class TestSpdCholesky:
    """The Cholesky checks of :meth:`LocationScatter.from_sigma`."""

    def test_reconstruction_and_logdet(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = int(rng.integers(1, 7))
            A = rng.standard_normal((p, p + 3))
            S = A @ A.T + 0.1 * np.eye(p)
            ls = LocationScatter.from_sigma(np.zeros(p), S)
            assert np.allclose(ls.chol @ ls.chol.T, S, atol=1e-10)
            sign, want = np.linalg.slogdet(S)
            assert sign > 0
            assert ls.log_det == pytest.approx(want, abs=1e-10)
            assert np.allclose(ls.precision @ S, np.eye(p), atol=1e-8)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            LocationScatter.from_sigma(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_singular(self):
        v = np.array([1.0, 2.0])
        with pytest.raises(NotPositiveDefinite):
            LocationScatter.from_sigma(np.zeros(2), np.outer(v, v))

    def test_rejects_asymmetric(self):
        with pytest.raises(DataError):
            LocationScatter.from_sigma(np.zeros(2), np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            LocationScatter.from_sigma(np.zeros(2), np.ones((2, 3)))


class TestLocationScatter:
    def test_distances_match_direct(self):
        rng = np.random.default_rng(1)
        mu = rng.standard_normal(3)
        A = rng.standard_normal((3, 3))
        sigma = A @ A.T + np.eye(3)
        est = LocationScatter.from_sigma(mu, sigma)
        X = rng.standard_normal((50, 3))
        inv = np.linalg.inv(sigma)
        want = np.einsum("ij,jk,ik->i", X - mu, inv, X - mu)
        assert np.allclose(est.squared_distances(X), want, atol=1e-10)
        assert np.allclose(est.distances(X), np.sqrt(want), atol=1e-10)

    def test_mahalanobis_single_point(self):
        est = LocationScatter.from_sigma([0.0, 0.0], np.eye(2))
        (d,) = est.distances([3.0, 4.0])
        assert d == pytest.approx(5.0, abs=1e-12)
        with pytest.raises(DimensionMismatch):
            est.distances([1.0, 2.0, 3.0])

    def test_arrays_are_readonly(self):
        est = LocationScatter.from_sigma([0.0], [[2.0]])
        with pytest.raises(ValueError):
            est.mu[0] = 1.0
        with pytest.raises(ValueError):
            est.sigma[0, 0] = 1.0

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            LocationScatter.from_sigma([0.0, 0.0], np.eye(3))
        est = LocationScatter.from_sigma([0.0, 0.0], np.eye(2))
        with pytest.raises(DimensionMismatch):
            est.squared_distances(np.ones((4, 3)))


class TestSampling:
    def test_substream_reproducible_and_distinct(self):
        a = substream(7, 3).standard_normal(5)
        b = substream(7, 3).standard_normal(5)
        c = substream(7, 4).standard_normal(5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_substream_is_the_only_generator_constructor(self):
        """Every random stream of the package comes from ``substream``: no
        other module builds a generator of its own."""
        package = Path(robustqda.__file__).resolve().parent
        hits = [
            f"{path.name}:{number}: {line.strip()}"
            for path in sorted(package.glob("*.py"))
            if path.name != "core.py"
            for number, line in enumerate(path.read_text().splitlines(), start=1)
            if "default_rng" in line
        ]
        assert hits == []

    def test_mvn_sample_moments(self):
        mu = np.array([1.0, -2.0, 0.5])
        A = np.array([[2.0, 0.0, 0.0], [0.3, 1.0, 0.0], [-0.2, 0.4, 0.7]])
        est = LocationScatter.from_sigma(mu, A @ A.T)
        X = mvn_sample(substream(11, 0), est, 200000)
        assert np.allclose(X.mean(axis=0), mu, atol=0.02)
        assert np.allclose(np.cov(X.T), A @ A.T, atol=0.05)

    def test_mvn_sample_deterministic(self):
        est = LocationScatter.from_sigma([0.0, 0.0], np.eye(2))
        X1 = mvn_sample(substream(3, 1), est, 10)
        X2 = mvn_sample(substream(3, 1), est, 10)
        assert np.array_equal(X1, X2)

    def test_mvn_sample_rejects_nonpositive_n(self):
        est = LocationScatter.from_sigma([0.0], [[1.0]])
        with pytest.raises(DomainError):
            mvn_sample(substream(0, 0), est, 0)


def _agree(got: float, want: float, rel: float = 1e-12) -> bool:
    """Relative agreement, or both values below the smallest normal float."""
    return abs(got - want) <= rel * max(abs(got), abs(want)) or max(abs(got), abs(want)) < 2.3e-308


class TestChi2MatchesScipyStats:
    """The math-only forms agree with ``scipy.stats.chi2`` to 1e-12 relative;
    SciPy is not correctly rounded either, so bit equality is not asked."""

    def test_quantile_and_cdf_grid(self):
        from scipy import stats

        rng = np.random.default_rng(11)
        probs = np.concatenate([rng.random(200), [1e-300, 1e-12, 0.5, 0.975, 0.99, 1 - 1e-12]])
        probs = probs[(probs > 0.0) & (probs < 1.0)]
        for dof in range(1, 40):
            for prob in probs:
                q = chi2_quantile(dof, float(prob))
                assert _agree(q, float(stats.chi2.ppf(prob, dof))), (dof, prob)
                assert _agree(chi2_cdf(q, dof), float(stats.chi2.cdf(q, dof))), (dof, prob)
            for x in (1e-300, 0.3, 7.5, 1e3):
                assert _agree(chi2_cdf(x, dof), float(stats.chi2.cdf(x, dof))), (dof, x)
            for x, want in ((0.0, 0.0), (-1.0, 0.0), (-math.inf, 0.0), (math.inf, 1.0)):
                assert chi2_cdf(x, dof) == want == float(stats.chi2.cdf(x, dof))


class TestChi2WithoutScipy:
    """Properties of the math-only chi-square functions over a wide range."""

    PROBS = [1e-300, 1e-100, 1e-30, 1e-12, 1e-6, *np.linspace(0.001, 0.999, 41).tolist(),
             1 - 1e-6, 1 - 1e-12]

    def test_quantiles_increase_strictly_with_prob(self):
        for dof in range(1, 401):
            q = [chi2_quantile(dof, p) for p in self.PROBS]
            assert all(b > a for a, b in zip(q, q[1:])), dof

    def test_cdf_and_upper_tail_return_the_probability(self):
        from robustqda.core import _log_gamma_tails

        for dof in range(1, 401):
            for p in self.PROBS:
                q = chi2_quantile(dof, p)
                if q < 2.3e-308:
                    continue  # underflowed: the quantile of 1e-300 at dof 1 is about 1e-600
                assert chi2_cdf(q, dof) == pytest.approx(p, rel=1e-12), (dof, p)
                if p > 0.5:
                    upper = math.exp(_log_gamma_tails(dof / 2, q / 2)[1])
                    assert upper == pytest.approx(1.0 - p, rel=1e-12), (dof, p)

    def test_quantile_needs_few_evaluations(self, monkeypatch):
        """Solving the smaller tail keeps Newton's start close: at most five
        evaluations were measured (solving the lower tail alone took 36)."""
        from robustqda import core

        calls = []
        tails = core._log_gamma_tails
        monkeypatch.setattr(core, "_log_gamma_tails", lambda a, x: calls.append(x) or tails(a, x))
        for dof in range(1, 401, 3):
            for p in self.PROBS + [1 - 2.0 ** -53]:
                calls.clear()
                chi2_quantile(dof, p)
                assert len(calls) <= 6, (dof, p, len(calls))

    def test_tail_probabilities_give_ordered_finite_quantiles(self):
        lower = [5e-324, 1e-300, 1e-200, 1e-100, 1e-30, 1e-12]
        upper = [1 - 1e-12, 1 - 1e-15, 1 - 2.0 ** -53]
        for dof in (1, 2, 3, 5, 10, 39, 400, 10_000):
            q = [chi2_quantile(dof, p) for p in lower + upper]
            assert all(math.isfinite(v) and v >= 0.0 for v in q), dof
            assert all(b >= a for a, b in zip(q, q[1:])), dof
            assert q[-3] < q[-2] < q[-1], dof

    def test_nan_and_subnormal_inputs(self):
        for dof in (1, 3):
            assert 0.0 == chi2_cdf(5e-324, dof) <= chi2_cdf(1e-323, dof) <= chi2_cdf(1e-300, dof)
        with pytest.raises(DomainError):
            chi2_quantile(3, math.nan)
        with pytest.raises(ValueError):
            chi2_quantile(math.nan, 0.5)
        assert math.isnan(chi2_cdf(math.nan, 3))
        with pytest.raises(ValueError):
            chi2_cdf(1.0, math.nan)

    def test_consistency_factor_matches_the_scipy_formula(self):
        from scipy import stats

        from robustqda.mcd import consistency_factor

        n = 1000
        for p in range(1, 51):
            for h in range(500, 991, 10):
                ratio = h / n
                want = ratio / stats.chi2.cdf(stats.chi2.ppf(ratio, p), p + 2)
                assert consistency_factor(h, n, p) == pytest.approx(want, rel=1e-12), (h, p)

    def test_package_never_imports_scipy(self):
        import ast
        from pathlib import Path

        import robustqda

        for path in Path(robustqda.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                assert not any(name.split(".")[0] == "scipy" for name in names), (path.name, node.lineno)


class TestFromSigmaChecksOnce:
    def test_symmetry_check_runs_once(self):
        from unittest import mock

        from robustqda import core

        with mock.patch.object(core, "_check_square_symmetric", wraps=core._check_square_symmetric) as spy:
            LocationScatter.from_sigma(np.zeros(2), np.array([[2.0, 0.5], [0.5, 1.0]]))
        assert spy.call_count == 1

    def test_sigma_errors_come_before_the_length_check(self):
        with pytest.raises(DataError):
            LocationScatter.from_sigma(np.zeros(3), np.array([[1.0, 0.5], [0.1, 1.0]]))
        with pytest.raises(NotPositiveDefinite):
            LocationScatter.from_sigma(np.zeros(3), np.zeros((2, 2)))


class TestInverseFactorWhitening:
    """Distances whiten through the cached inverse factor ``inv_chol``."""

    # Relative to the largest entry; measured errors stay below 1e-15 on
    # these well-conditioned factors, so this leaves a hundredfold margin.
    RTOL = 1e-13

    def test_matches_scipy_triangular_solve(self):
        import scipy.linalg as sla

        rng = np.random.default_rng(31)
        for p in range(1, 9):
            A = rng.standard_normal((p, p + 4))
            ls = LocationScatter.from_sigma(rng.standard_normal(p), A @ A.T + 0.1 * np.eye(p))
            assert np.array_equal(ls.inv_chol, np.tril(ls.inv_chol))
            X = rng.standard_normal((37, p)) * 3.0
            want = sla.solve_triangular(ls.chol, (X - ls.mu).T, lower=True)
            got = ls.inv_chol @ (X - ls.mu).T
            assert np.abs(got - want).max() <= self.RTOL * np.abs(want).max(), p
            d2 = np.einsum("ij,ij->j", want, want)
            assert np.abs(ls.squared_distances(X) - d2).max() <= self.RTOL * d2.max(), p

    def test_solve_does_not_write_to_its_arguments(self):
        from robustqda.core import _inverse_factors

        L = np.linalg.cholesky(np.array([[[2.0, 0.5], [0.5, 1.0]], [[1.0, 0.2], [0.2, 3.0]]]))
        for stack in (L, L[:, ::-1, ::-1].transpose(0, 2, 1)):  # C and Fortran order slices
            before = stack.copy()
            inv, failed = _inverse_factors(stack)
            assert np.array_equal(stack, before) and not failed

    def test_one_row_gives_the_bits_of_its_row_in_a_batch(self):
        # A lone row is scored as a two-row product: as a matrix-vector
        # BLAS call, its distance differed in the last bits for about
        # 40% of rows.
        rng = np.random.default_rng(41)
        for p in (2, 5, 8):
            A = rng.standard_normal((p, p + 3))
            ls = LocationScatter.from_sigma(rng.standard_normal(p), A @ A.T + 0.1 * np.eye(p))
            X = rng.standard_normal((2000, p)) * 3.0
            batch = ls.squared_distances(X)
            alone = np.array([ls.squared_distances(row)[0] for row in X])
            assert np.array_equal(alone, batch), p
            assert ls.squared_distances(X[:1]).shape == (1,)

    def test_squared_distances_rejects_non_finite_rows(self):
        ls = LocationScatter.from_sigma([0.0, 0.0], np.eye(2))
        for bad in (np.nan, np.inf, -np.inf):
            X = np.ones((3, 2))
            X[1, 0] = bad
            with pytest.raises(ValueError, match="infs or NaNs"):
                ls.squared_distances(X)

    def test_singular_factor_raises_numeric_error(self):
        singular = np.array([[1.0, 0.0], [1.0, 0.0]])
        ls = LocationScatter(mu=np.zeros(2), sigma=singular @ singular.T, chol=singular, log_det=0.0)
        with pytest.raises(NumericError):
            ls.inv_chol
        with pytest.raises(NumericError):
            ls.squared_distances(np.ones((3, 2)))

    def test_inverse_computed_once_and_read_only(self, monkeypatch):
        from robustqda import core

        calls = []
        real = core._inverse_factors
        monkeypatch.setattr(core, "_inverse_factors", lambda L: calls.append(1) or real(L))
        ls = LocationScatter.from_sigma([1.0, 2.0], [[2.0, 0.3], [0.3, 1.0]])
        assert calls == []
        X = np.arange(10.0).reshape(5, 2)
        first = ls.squared_distances(X)
        inv_l = ls.inv_chol
        assert np.array_equal(ls.squared_distances(X), first)
        ls.precision
        assert ls.inv_chol is inv_l
        assert len(calls) == 1
        assert not inv_l.flags.writeable
        with pytest.raises(ValueError):
            inv_l[0, 0] = 1.0


class TestPrecisionOnFirstRead:
    def test_no_solve_until_read_then_cached(self, monkeypatch):
        from robustqda import core

        calls = []
        real = core._inverse_factors
        monkeypatch.setattr(core, "_inverse_factors", lambda L: calls.append(1) or real(L))
        ls = LocationScatter.from_sigma([1.0, 2.0], [[2.0, 0.3], [0.3, 1.0]])
        assert calls == []
        first = ls.precision
        assert len(calls) == 1
        assert ls.precision is first
        assert len(calls) == 1

    def test_read_only_and_bit_equal_to_inverse_factor_product(self):
        rng = np.random.default_rng(32)
        for p in range(1, 7):
            A = rng.standard_normal((p, p + 3))
            S = A @ A.T + 0.1 * np.eye(p)
            ls = LocationScatter.from_sigma(np.zeros(p), S)
            want = ls.inv_chol.T @ ls.inv_chol
            want = 0.5 * (want + want.T)
            assert np.array_equal(ls.precision, want)
            assert not ls.precision.flags.writeable
            with pytest.raises(ValueError):
                ls.precision[0, 0] = 1.0


def _same_bits(a, b) -> bool:
    """Equal shapes and equal bits, so that -0.0 and +0.0 differ."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _partition_median(x: np.ndarray, axis: int) -> np.ndarray:
    """The starts' median: the middle order statistic, or the plain mean of
    the two middle ones, with the sign of zero the partition gives."""
    half = x.shape[axis] // 2
    if x.shape[axis] % 2:
        return np.take(np.partition(x, half, axis=axis), half, axis=axis)
    part = np.partition(x, (half - 1, half), axis=axis)
    return (np.take(part, half - 1, axis=axis) + np.take(part, half, axis=axis)) / 2


def _planted(rng, shape) -> np.ndarray:
    """Half-integer values, so ties are common, with a share of -0.0 and +0.0."""
    x = np.round(rng.standard_normal(shape) * 2.0) / 2.0
    x[rng.random(shape) < 0.3] = -0.0
    return x


class TestMedianAndDistinctMatchNumpy:
    """``median`` and ``distinct`` stand in for ``np.median`` and
    ``np.unique``, which load ``numpy.ma``, and give the same bits."""

    VECTORS = (
        [-0.0, 1.0, -0.0],  # np.median turns the -0.0 median into +0.0
        [-0.0, -0.0],
        [0.0, -0.0, -0.0, 0.0],
        [1.0, -0.0, 0.0, -0.0, 2.0],
        [2.0, 1.0, 2.0, 2.0, -3.0],  # ties, odd count
        [5.0, -1.0, 3.0, 3.0],  # ties, even count
        [-5e-324, 0.0],  # the middle pair's mean rounds to -0.0
        [7.5],
    )

    @pytest.mark.parametrize("values", VECTORS)
    def test_median_of_a_vector(self, values):
        x = np.array(values)
        assert _same_bits(median(x, 0), np.median(x, axis=0))
        assert _same_bits(median(x, 0, -0.0), _partition_median(x, 0))

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 31, 64])
    def test_median_along_the_callers_axes(self, n):
        rng = np.random.default_rng(n)
        # robust_scale: the rows of (n, p); block_mcd.median_pool: the
        # blocks of (q, p) and (q, p, p); the starts: axes 1 and 2 of stacks.
        for shape, axis in (((n, 4), 0), ((n, 3, 3), 0)):
            x = _planted(rng, shape)
            assert _same_bits(median(x, axis), np.median(x, axis=axis))
        for shape, axis in (((3, n, 4), 1), ((3, 4, n), 2)):
            x = _planted(rng, shape)
            assert _same_bits(median(x, axis, -0.0), _partition_median(x, axis))
            assert np.array_equal(median(x, axis, -0.0), np.median(x, axis=axis))

    @pytest.mark.parametrize("n", [0, 1, 2, 9, 10, 1000])
    def test_distinct_integers(self, n):
        y = np.random.default_rng(n).integers(-3, 4, n)
        values, inverse = distinct(y)
        want_values, want_inverse = np.unique(y, return_inverse=True)
        assert values.dtype == want_values.dtype and np.array_equal(values, want_values)
        assert inverse.dtype == want_inverse.dtype and np.array_equal(inverse, want_inverse)
        assert np.array_equal(values, np.unique(y))

    @pytest.mark.parametrize("values", VECTORS)
    def test_distinct_floats_with_signed_zeros(self, values):
        x = np.array(values)
        got, inverse = distinct(x)
        want, want_inverse = np.unique(x, return_inverse=True)
        assert _same_bits(got, want)
        assert np.array_equal(inverse, want_inverse)

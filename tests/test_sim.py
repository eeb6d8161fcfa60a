"""Tests for the contamination study harness."""
import math
from dataclasses import replace

import numpy as np
import pytest

from robustqda import sim
from robustqda.core import substream
from robustqda.errors import ConfigError, DataError, DimensionMismatch, ZeroNoise
from robustqda.presets import preset_names
from robustqda.qda import classify_rows, fit_qda
from robustqda.sim import (
    KIND_MISLABELED,
    KIND_REPLACED,
    ClassSpec,
    Contamination,
    Scenario,
    Tags,
    alpha_metric,
    average_confusions,
    extended_confusion,
    format_scenario,
    generate,
    kl_metric,
    parse_scenario,
    preset_scenario,
    run_study,
    two_class_demo,
    write_study_report,
)


def small_scenario(eps_label=0.0, eps_meas=0.0, seed=0, n=(120, 140)):
    noise = Contamination(kind="cluster", center=(9.0, -9.0), scale=0.2)
    return Scenario(
        classes=(
            ClassSpec(n=n[0], mu=(0.0, 0.0), sigma=(1.0, 1.0), contamination=noise),
            ClassSpec(n=n[1], mu=(5.0, 5.0), sigma=(1.0, 2.0), contamination=noise),
        ),
        eps_label=eps_label,
        eps_meas=eps_meas,
        seed=seed,
        name="unit",
    )


@pytest.fixture
def one_block(monkeypatch):
    """Study fits in one block, the block count these tests' studies use."""
    monkeypatch.setattr(sim, "_BLOCKS", 1)


class TestScenarioValidation:
    def test_needs_two_classes(self):
        with pytest.raises(ConfigError):
            Scenario(classes=(ClassSpec(n=10, mu=(0.0,), sigma=(1.0,)),))

    def test_epsilon_ranges(self):
        with pytest.raises(ConfigError):
            small_scenario(eps_label=0.5)
        with pytest.raises(ConfigError):
            small_scenario(eps_meas=-0.1)
        with pytest.raises(ConfigError):
            small_scenario(eps_label=0.3, eps_meas=0.2)

    def test_negative_seed(self):
        message = "seed must be a non-negative integer, got -1"
        with pytest.raises(DataError, match=message):
            small_scenario(seed=-1)
        with pytest.raises(DataError, match=message):
            replace(preset_scenario("clean"), seed=-1)
        with pytest.raises(DataError, match=message):
            replace(small_scenario(), seed=-1)
        text = format_scenario(small_scenario(seed=3)).replace("seed = 3", "seed = -1")
        with pytest.raises(DataError, match=message):
            parse_scenario(text)

    def test_contamination_required_for_measurement_noise(self):
        with pytest.raises(ConfigError, match="contamination"):
            Scenario(
                classes=(
                    ClassSpec(n=10, mu=(0.0,), sigma=(1.0,)),
                    ClassSpec(n=10, mu=(3.0,), sigma=(1.0,)),
                ),
                eps_meas=0.1,
            )

    def test_dimension_agreement(self):
        with pytest.raises(ConfigError):
            Scenario(
                classes=(
                    ClassSpec(n=10, mu=(0.0, 0.0), sigma=(1.0, 1.0)),
                    ClassSpec(n=10, mu=(1.0,), sigma=(1.0,)),
                )
            )

    def test_contamination_validation(self):
        with pytest.raises(ConfigError):
            Contamination(kind="blob", center=(0.0,))
        for scale in (0.0, -math.inf, math.nan, math.inf):
            with pytest.raises(ConfigError, match="positive and finite"):
                Contamination(kind="cluster", center=(0.0,), scale=scale)

    def test_contamination_center_must_match_the_dimension(self):
        # checked when the scenario is built, not when a replication draws from it
        noise = Contamination(kind="point", center=(7.0,))
        with pytest.raises(ConfigError, match="class 1: contamination center has dimension 1, expected 2"):
            Scenario(
                classes=(
                    ClassSpec(n=10, mu=(0.0, 0.0), sigma=(1.0, 1.0), contamination=noise),
                    ClassSpec(n=10, mu=(5.0, 5.0), sigma=(1.0, 1.0), contamination=noise),
                ),
                eps_meas=0.1,
            )


class TestGenerate:
    def test_clean_counts_and_grouping(self):
        sc = small_scenario()
        X, tags = generate(sc, substream(sc.seed))
        assert X.shape == (260, 2)
        assert np.array_equal(tags.origin, np.repeat([1, 2], [120, 140]))
        assert np.array_equal(tags.given, tags.origin)
        assert np.all(tags.kind == 0)

    def test_label_noise_counts_and_even_split(self):
        noise = Contamination(kind="point", center=(50.0, 50.0, 50.0))
        sc = Scenario(
            classes=tuple(
                ClassSpec(n=300, mu=(3.0 * g, 0.0, 0.0), sigma=(1.0, 1.0, 1.0), contamination=noise)
                for g in range(3)
            ),
            eps_label=0.2,
            seed=1,
        )
        X, tags = generate(sc, substream(sc.seed))
        for g in (1, 2, 3):
            block = tags.origin == g
            flipped = block & (tags.kind == 1)
            assert int(flipped.sum()) == 60  # floor(0.2 * 300)
            assert np.all(tags.given[flipped] != g)
            others, counts = np.unique(tags.given[flipped], return_counts=True)
            assert sorted(others.tolist()) == [k for k in (1, 2, 3) if k != g]
            assert np.array_equal(counts, [30, 30])
            assert np.all(tags.given[block & (tags.kind == 0)] == g)

    def test_measurement_noise_replaces_clean_rows(self):
        sc = small_scenario(eps_label=0.1, eps_meas=0.25, seed=2)
        X, tags = generate(sc, substream(sc.seed))
        for g, n_g in ((1, 120), (2, 140)):
            block = tags.origin == g
            replaced = block & (tags.kind == 2)
            assert int(replaced.sum()) == int(math.floor(0.25 * n_g))
            # replaced rows keep their label and sit at the noise cluster
            assert np.all(tags.given[replaced] == g)
            assert np.all(np.linalg.norm(X[replaced] - [9.0, -9.0], axis=1) < 5.0)
            # no row is both mislabeled and replaced
            assert not np.any(replaced & (tags.kind == 1))

    def test_point_noise_is_exact(self):
        noise = Contamination(kind="point", center=(7.0, -3.0))
        sc = Scenario(
            classes=(
                ClassSpec(n=50, mu=(0.0, 0.0), sigma=(1.0, 1.0), contamination=noise),
                ClassSpec(n=50, mu=(4.0, 4.0), sigma=(1.0, 1.0), contamination=noise),
            ),
            eps_meas=0.2,
            seed=3,
        )
        X, tags = generate(sc, substream(sc.seed))
        replaced = tags.kind == 2
        assert np.array_equal(X[replaced], np.tile([7.0, -3.0], (int(replaced.sum()), 1)))

    def test_deterministic_given_seeded_rng(self):
        sc = small_scenario(eps_label=0.1, seed=4)
        X1, t1 = generate(sc, np.random.default_rng(99))
        X2, t2 = generate(sc, np.random.default_rng(99))
        assert np.array_equal(X1, X2)
        assert np.array_equal(t1.given, t2.given)

    def test_mislabeled_row_tags(self):
        sc = small_scenario(eps_label=0.1, seed=5)
        _, tags = generate(sc, substream(sc.seed))
        rows = np.flatnonzero(tags.kind == KIND_MISLABELED)
        assert rows.size > 0
        assert np.all(tags.given[rows] != tags.origin[rows])
        assert not tags.given.flags.writeable


class TestExtendedConfusion:
    def make_tags(self):
        origin = np.array([1, 1, 1, 1, 2, 2, 2, 2])
        given = np.array([1, 1, 2, 1, 2, 2, 1, 2])
        kind = np.array([0, 0, 1, 2, 0, 0, 1, 2], dtype=np.int8)
        return Tags(origin=origin, given=given, kind=kind)

    def test_rates_by_hand(self):
        tags = self.make_tags()
        pred = np.array([1, 0, 2, 0, 2, 2, 1, 2])
        conf = extended_confusion(pred, tags, 2)
        assert conf.row_keys == ((1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2))
        assert conf.rate(1, 1, 1) == 0.5
        assert conf.rate(1, 1, 0) == 0.5
        assert conf.rate(1, 2, 2) == 1.0
        assert conf.rate(1, 0, 0) == 1.0  # the replaced class-1 row
        assert conf.rate(2, 0, 2) == 1.0
        assert np.allclose(conf.rates.sum(axis=1), 1.0, atol=1e-12)
        assert conf.row_counts.tolist() == [1, 2, 1, 1, 1, 2]

    def test_unknown_row_raises(self):
        conf = extended_confusion(np.ones(8, dtype=int), self.make_tags(), 2)
        with pytest.raises(DataError):
            conf.rate(3, 3, 1)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            extended_confusion(np.ones(3, dtype=int), self.make_tags(), 2)

    def test_average(self):
        tags = self.make_tags()
        a = extended_confusion(np.array([1, 1, 2, 0, 2, 2, 1, 2]), tags, 2)
        b = extended_confusion(np.array([2, 1, 2, 0, 2, 2, 1, 2]), tags, 2)
        avg = average_confusions([a, b])
        assert avg.rate(1, 1, 1) == 0.75
        assert avg.rate(1, 1, 2) == 0.25
        assert np.allclose(avg.rates.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("bad", [3, -1])
    def test_out_of_range_prediction_rejected(self, bad):
        pred = np.ones(8, dtype=int)
        pred[5] = bad
        with pytest.raises(DataError, match="predictions must lie in 0..2"):
            extended_confusion(pred, self.make_tags(), 2)

    @pytest.mark.parametrize("field, bad", [("given", 3), ("given", 0), ("origin", 3), ("origin", 0)])
    def test_out_of_range_tag_rejected(self, field, bad):
        tags = self.make_tags()
        values = getattr(tags, field).copy()
        values[2] = bad
        tags = replace(tags, **{field: values})
        with pytest.raises(DataError, match="tag origins and given labels must lie in 1..2"):
            extended_confusion(np.ones(8, dtype=int), tags, 2)

    def test_average_requires_matching_rows(self):
        tags = self.make_tags()
        a = extended_confusion(np.ones(8, dtype=int), tags, 2)
        b = extended_confusion(np.ones(8, dtype=int), tags, 3)
        with pytest.raises(DataError):
            average_confusions([a, b])


def reference_extended_confusion(pred_labels, tags, n_classes):
    """The per-key confusion that one np.unique and one np.bincount replaced:
    Python tuples for the keys, one mask pass per key."""
    pred = np.asarray(pred_labels, dtype=np.int64)
    G = int(n_classes)
    given_key = np.where(tags.kind == KIND_REPLACED, 0, tags.given)
    keys = sorted(set(zip(tags.origin.tolist(), given_key.tolist())))
    rates = np.empty((len(keys), G + 1))
    counts = np.empty(len(keys), dtype=np.int64)
    for r, (origin, given) in enumerate(keys):
        mask = (tags.origin == origin) & (given_key == given)
        counts[r] = int(mask.sum())
        sub = pred[mask]
        for g in range(1, G + 1):
            rates[r, g - 1] = np.count_nonzero(sub == g) / counts[r]
        rates[r, G] = np.count_nonzero(sub == 0) / counts[r]
    return tuple(keys), rates, counts


def assert_confusion_matches_reference(pred, tags, G):
    conf = extended_confusion(pred, tags, G)
    keys, rates, counts = reference_extended_confusion(pred, tags, G)
    assert conf.row_keys == keys
    assert all(type(v) is int for key in conf.row_keys for v in key)
    assert conf.rates.dtype == rates.dtype and conf.rates.shape == rates.shape
    assert conf.rates.tobytes() == rates.tobytes()
    assert conf.row_counts.dtype == counts.dtype and conf.row_counts.tobytes() == counts.tobytes()
    return conf


class TestConfusionMatchesPerKeyReference:
    @pytest.mark.parametrize("name", ["clean", "label", "measurement", "both"])
    def test_presets(self, name):
        sc = replace(preset_scenario(name, scale=0.004), seed=6)
        X, tags = generate(sc, substream(sc.seed))
        G = sc.n_classes
        model = fit_qda(X, tags.given, mode="classical")
        labels, _, _, _ = classify_rows(model, X)
        assert_confusion_matches_reference(labels, tags, G)
        rng = np.random.default_rng(len(name))
        assert_confusion_matches_reference(rng.integers(0, G + 1, len(tags)), tags, G)

    def test_key_with_no_replaced_rows(self):
        # origin 2 has a replaced row, origin 1 has none; origin 3 has only
        # replaced rows; every prediction column is hit somewhere
        origin = np.array([1, 1, 1, 2, 2, 2, 2, 3, 3])
        given = np.array([1, 2, 1, 2, 1, 2, 2, 3, 3])
        kind = np.array([0, 1, 0, 0, 1, 2, 0, 2, 2], dtype=np.int8)
        tags = Tags(origin=origin, given=given, kind=kind)
        pred = np.array([1, 0, 3, 2, 2, 0, 1, 3, 0])
        conf = assert_confusion_matches_reference(pred, tags, 3)
        assert conf.row_keys == ((1, 1), (1, 2), (2, 0), (2, 1), (2, 2), (3, 0))

    def test_no_rows(self):
        empty = np.empty(0, dtype=np.int64)
        tags = Tags(origin=empty.copy(), given=empty.copy(), kind=np.empty(0, dtype=np.int8))
        conf = assert_confusion_matches_reference(empty, tags, 2)
        assert conf.rates.shape == (0, 3)


class TestMetrics:
    def test_kl_frozen_value(self):
        assert kl_metric(2.0 * np.eye(5), np.eye(5)) == pytest.approx(
            1.5342640972002735, abs=1e-12
        )

    def test_kl_zero_iff_equal_and_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            A = rng.standard_normal((4, 4))
            S = A @ A.T + 0.5 * np.eye(4)
            assert kl_metric(S, S) == pytest.approx(0.0, abs=1e-9)
            B = rng.standard_normal((4, 4))
            T = B @ B.T + 0.5 * np.eye(4)
            assert kl_metric(S, T) >= -1e-10

    def test_kl_of_an_estimate_without_positive_determinant_is_infinite(self):
        assert kl_metric(np.diag([1.0, -1.0]), np.eye(2)) == math.inf

    def test_alpha_by_hand(self):
        tags = Tags(
            origin=np.array([1, 1, 1, 1]),
            given=np.array([1, 1, 1, 1]),
            kind=np.array([0, 1, 2, 2], dtype=np.int8),
        )
        rd = np.array([1.0, 9.0, 9.0, 1.0])
        # three noisy rows carry label 1; two of the label-1 rows exceed 5
        assert alpha_metric(rd, tags, 1, cutoff=5.0) == pytest.approx(2.0 / 3.0)

    def test_alpha_without_noise(self):
        tags = Tags(
            origin=np.array([1, 1]), given=np.array([1, 1]), kind=np.zeros(2, dtype=np.int8)
        )
        with pytest.raises(ZeroNoise):
            alpha_metric(np.ones(2), tags, 1, cutoff=5.0)


@pytest.mark.usefixtures("one_block")
class TestRunStudy:
    def test_deterministic_and_well_formed(self):
        sc = small_scenario(eps_label=0.1, seed=7, n=(150, 160))
        a = run_study(sc, reps=2)
        b = run_study(sc, reps=2)
        for ra, rb in zip(a.methods, b.methods):
            assert ra.mode == rb.mode
            assert np.array_equal(ra.confusion.rates, rb.confusion.rates)
            assert np.array_equal(ra.kl_mean, rb.kl_mean)
            assert np.array_equal(ra.det_mean, rb.det_mean)
            assert np.array_equal(ra.alpha_mean, rb.alpha_mean)
        for rep in a.methods:
            assert np.allclose(rep.confusion.rates.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(rep.kl_mean >= 0.0)
            assert np.all(rep.det_mean > 0.0)
            assert len(rep.seconds) == 2
            assert all(s > 0 for s in rep.seconds)

    def test_single_rep_has_zero_spread(self):
        sc = small_scenario(seed=8, n=(150, 160))
        st = run_study(sc, reps=1, methods=("classical",))
        rep = st.method("classical")
        assert np.all(rep.kl_sd == 0.0)
        assert np.all(rep.det_sd == 0.0)
        assert rep.alpha_mean is None

    def test_method_lookup(self):
        sc = small_scenario(seed=9, n=(150, 160))
        st = run_study(sc, reps=1, methods=("classical",))
        with pytest.raises(DataError):
            st.method("robust")

    def test_class_without_planted_noise_reports_no_alpha(self, tmp_path):
        # floor(0.0075 * 120) = 0 replaced rows in class 1, floor(0.0075 * 140) = 1 in class 2.
        sc = small_scenario(eps_meas=0.0075, seed=10)
        study = run_study(sc, reps=2)
        write_study_report(study, tmp_path)
        for rep in study.methods:
            assert math.isnan(rep.alpha_mean[0]) and not math.isnan(rep.alpha_mean[1])
            rows = (tmp_path / f"metrics_{rep.mode}.csv").read_text().splitlines()
            assert rows[1].endswith(",,") and not rows[2].endswith(",")
        report = (tmp_path / "report.txt").read_text().splitlines()
        class_rows = [line for line in report if line.startswith(("        1  ", "        2  "))]
        assert [line.endswith(" -") for line in class_rows] == [True, False] * 2

    def test_argument_validation(self):
        sc = small_scenario()
        with pytest.raises(ConfigError):
            run_study(sc, reps=0)
        with pytest.raises(ConfigError):
            run_study(sc, methods=("fancy",))


class TestPresets:
    def test_names(self):
        assert preset_names() == ("both", "clean", "label", "measurement")

    def test_scaled_sizes_and_epsilons(self):
        sc = replace(preset_scenario("measurement", scale=0.01), seed=3)
        assert tuple(c.n for c in sc.classes) == (2500, 3500, 4000)
        assert (sc.eps_label, sc.eps_meas) == (0.0, 0.2)
        assert sc.seed == 3
        assert sc.p == 5
        kinds = [c.contamination.kind for c in sc.classes]
        assert kinds == ["cluster", "point", "shift"]

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="choose from"):
            preset_scenario("dirty")

    @pytest.mark.parametrize("scale", [0.0, -1.0, -math.inf, math.nan, math.inf])
    def test_scale_must_be_positive_and_finite(self, scale):
        with pytest.raises(ConfigError, match="scale must be positive and finite"):
            preset_scenario("clean", scale=scale)

    def test_clean_preset_priors_recovered(self):
        # empirical class shares are 0.25 / 0.35 / 0.40; robust trimming
        # must leave the priors within a percent of those targets
        sc = replace(preset_scenario("clean", scale=0.004), seed=0)
        X, tags = generate(sc, substream(sc.seed))
        model = fit_qda(X, tags.given, blocks=1, seed=0)
        assert np.allclose([c.prior for c in model.classes], [0.25, 0.35, 0.40], atol=0.01)


class TestScenarioFormat:
    def test_round_trip_presets(self):
        for name in preset_names():
            sc = replace(preset_scenario(name, scale=0.01), seed=5)
            back = parse_scenario(format_scenario(sc))
            assert back == sc

    def test_round_trip_full_matrix(self):
        sc = Scenario(
            classes=(
                ClassSpec(n=30, mu=(0.0, 1.0), sigma=((2.0, 0.3), (0.3, 1.0))),
                ClassSpec(n=40, mu=(4.0, 4.0), sigma=(1.0, 1.0)),
            ),
            seed=11,
            name="matrix",
        )
        back = parse_scenario(format_scenario(sc))
        assert back == sc

    def test_comments_and_blanks_ignored(self):
        sc = small_scenario(seed=12)
        text = "# heading\n\n" + format_scenario(sc) + "\n# trailing\n"
        assert parse_scenario(text) == sc

    def test_errors(self):
        sc = small_scenario()
        text = format_scenario(sc)
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_scenario(text + "bogus = 1\n")
        with pytest.raises(ConfigError, match="missing required key"):
            parse_scenario("dims = 2\n")
        with pytest.raises(ConfigError, match="expected numbers"):
            parse_scenario(text.replace("eps_label = 0.0", "eps_label = x"))
        # A non-finite number, last on its line, is named by its key.
        for line in ("eps_label = 0.0", "class1.noise_scale = 0.2", "class2.mu = 5.0 5.0"):
            assert f"\n{line}\n" in text
            for value in ("nan", "inf", "-inf"):
                bad = f"{line.rsplit(' ', 1)[0]} {value}"
                with pytest.raises(ConfigError, match=f"^{line.split(' = ')[0]}: expected finite numbers"):
                    parse_scenario(text.replace(f"\n{line}\n", f"\n{bad}\n"))
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_scenario(text + "dims = 2\n")
        with pytest.raises(ConfigError, match="'key = value'"):
            parse_scenario("dims\n")


class TestTwoClassDemo:
    def test_shapes_and_counts(self):
        X, y, info = two_class_demo()
        assert X.shape == (180, 2)
        assert int((y == 1).sum()) == 80  # 80 - 4 swapped out + 4 swapped in
        assert len(info["swapped_1"]) == 4
        assert len(info["swapped_2"]) == 4
        assert len(info["planted_1"]) == 5
        assert len(info["planted_2"]) == 8

    def test_roles_do_not_overlap(self):
        _, _, info = two_class_demo()
        assert not set(info["swapped_1"]) & set(info["planted_1"])
        assert not set(info["swapped_2"]) & set(info["planted_2"])
        assert np.all(info["planted_1"] < 80)
        assert np.all(info["planted_2"] >= 80)

    def test_swaps_change_labels(self):
        _, y, info = two_class_demo()
        assert np.all(y[info["swapped_1"]] == 2)
        assert np.all(y[info["swapped_2"]] == 1)

    def test_planted_rows_sit_at_their_clusters(self):
        X, _, info = two_class_demo()
        assert np.all(np.linalg.norm(X[info["planted_1"]] - [-4.0, -6.0], axis=1) < 1.5)
        assert np.all(np.linalg.norm(X[info["planted_2"]] - [-4.0, 1.5], axis=1) < 1.5)

    def test_deterministic(self):
        X1, y1, _ = two_class_demo()
        X2, y2, _ = two_class_demo()
        assert np.array_equal(X1, X2)
        assert np.array_equal(y1, y2)


@pytest.mark.usefixtures("one_block")
class TestReportFiles:
    def test_written_files_and_determinism(self, tmp_path):
        sc = small_scenario(eps_label=0.1, seed=13, n=(150, 160))
        study = run_study(sc, reps=1)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        paths1 = write_study_report(study, out1)
        study2 = run_study(sc, reps=1)
        paths2 = write_study_report(study2, out2)
        names = [p.name for p in paths1]
        assert names == [
            "scenario.txt",
            "confusion_robust.csv",
            "metrics_robust.csv",
            "confusion_classical.csv",
            "metrics_classical.csv",
            "report.txt",
        ]
        for p1, p2 in zip(paths1, paths2):
            assert p1.read_bytes() == p2.read_bytes()
        assert "  reps=1 h_frac=0.5 blocks=1\n" in (out1 / "report.txt").read_text()

    def test_scenario_file_round_trips(self, tmp_path):
        sc = small_scenario(seed=14)
        study = run_study(sc, reps=1, methods=("classical",))
        paths = write_study_report(study, tmp_path)
        text = (tmp_path / "scenario.txt").read_text()
        assert parse_scenario(text) == sc

    def test_csv_cells_keep_nine_significant_digits(self):
        from robustqda.sim import ExtendedConfusion, MethodReport, _confusion_csv, _metrics_csv

        odd = np.array([1 / 3, -0.0, 1e-300, 123456789012.0, math.inf, math.nan])
        conf = ExtendedConfusion(
            row_keys=((1, 1), (1, 0), (2, 2)),
            rates=np.array([odd[:3], odd[3:], [0.25, 0.5, 0.25]]),
            row_counts=np.array([40.0, 2.5, 1e9 + 0.5]),
        )
        assert conf.n_classes == 2
        assert _confusion_csv(conf) == (
            "origin,given,pred_1,pred_2,pred_0,rows\n"
            "1,1,0.333333333,-0,1e-300,40\n"
            "1,0,1.23456789e+11,inf,nan,2.5\n"
            "2,2,0.25,0.5,0.25,1e+09\n"
        )
        report = MethodReport(
            mode="classical", confusion=conf, kl_mean=odd[:2], kl_sd=odd[2:4],
            det_mean=odd[4:], det_sd=np.array([2.0, 1e-5]),
            alpha_mean=None, alpha_sd=None, seconds=(),
        )
        header = "class,kl_mean,kl_sd,det_mean,det_sd,alpha_mean,alpha_sd\n"
        assert _metrics_csv(report, 2) == header + (
            "1,0.333333333,1e-300,inf,2,,\n"
            "2,-0,1.23456789e+11,nan,1e-05,,\n"
        )
        report = replace(report, alpha_mean=np.array([0.98, 1.0]), alpha_sd=np.zeros(2))
        assert _metrics_csv(report, 2).splitlines()[1:] == [
            "1,0.333333333,1e-300,inf,2,0.98,0",
            "2,-0,1.23456789e+11,nan,1e-05,1,0",
        ]

    def test_confusion_csv_header(self, tmp_path):
        sc = small_scenario(seed=15)
        study = run_study(sc, reps=1, methods=("classical",))
        write_study_report(study, tmp_path)
        head = (tmp_path / "confusion_classical.csv").read_text().splitlines()[0]
        assert head == "origin,given,pred_1,pred_2,pred_0,rows"

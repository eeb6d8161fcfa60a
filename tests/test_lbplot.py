"""Tests for the label-bias diagnostic points, CSV, and SVG rendering."""
import io
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from robustqda import fileio
from robustqda.core import chi2_quantile
from robustqda.errors import DataError, DimensionMismatch
from robustqda.lbplot import (
    LB_CUTOFF,
    LbPlotSpec,
    LbPoint,
    class_color,
    lb_points,
    read_lb_points,
    render_lb_svg,
    write_lb_csv,
)
from robustqda.qda import classify_rows, fit_qda
from robustqda.sim import two_class_demo


@pytest.fixture(scope="module")
def demo_model():
    X, y, info = two_class_demo(seed=0)
    model = fit_qda(X, y, blocks=1, seed=0)
    return X, y, model


def test_lb_cutoff_constant():
    assert LB_CUTOFF == pytest.approx(math.sqrt(math.log(2.0)), abs=1e-15)
    assert LB_CUTOFF == pytest.approx(0.8325546111576977, abs=1e-15)


def test_points_match_classifier(demo_model):
    X, y, model = demo_model
    spec = lb_points(model, X, y, 2)
    rows = np.flatnonzero(y == 2)
    assert [p.row for p in spec.points] == rows.tolist()
    labels, scores, rd, min_rd = classify_rows(model, X[rows])
    for i, pt in enumerate(spec.points):
        assert pt.given == 2
        assert pt.rd_own == pytest.approx(rd[i, 1], abs=1e-12)
        want_lb = math.sqrt(scores[i].max() - scores[i, 1])
        assert pt.lb == pytest.approx(want_lb, abs=1e-12)
        assert pt.predicted == int(np.argmax(scores[i]) + 1)
        assert pt.overall_outlier == (min_rd[i] > model.outlier_cutoff)
    assert spec.rd_cutoff == pytest.approx(math.sqrt(chi2_quantile(2, 0.99)), abs=1e-12)
    assert spec.lb_cutoff == LB_CUTOFF


def test_lb_zero_for_points_predicted_as_given(demo_model):
    X, y, model = demo_model
    spec = lb_points(model, X, y, 1)
    for pt in spec.points:
        if pt.predicted == 1:
            assert pt.lb == 0.0
        else:
            assert pt.lb > 0.0


def test_unknown_class_rejected(demo_model):
    X, y, model = demo_model
    with pytest.raises(DataError):
        lb_points(model, X, y, 3)
    with pytest.raises(DimensionMismatch):
        lb_points(model, X, y[:-1], 1)


def test_absent_class_yields_no_points(demo_model):
    X, y, model = demo_model
    spec = lb_points(model, X, np.ones_like(y), 2)
    assert spec.points == ()


class TestCsv:
    def test_round_trip_byte_stable(self, demo_model, tmp_path):
        X, y, model = demo_model
        spec = lb_points(model, X, y, 2)
        first = io.StringIO()
        write_lb_csv(spec, first)
        pts = read_lb_points(io.StringIO(first.getvalue()))
        assert len(pts) == len(spec.points)
        # re-writing the parsed points reproduces the file byte for byte
        from dataclasses import replace

        spec2 = replace(spec, points=tuple(pts))
        second = io.StringIO()
        write_lb_csv(spec2, second)
        assert second.getvalue() == first.getvalue()

    def test_file_target(self, demo_model, tmp_path):
        X, y, model = demo_model
        spec = lb_points(model, X, y, 1)
        path = tmp_path / "lb.csv"
        write_lb_csv(spec, path)
        text = path.read_text()
        assert text.startswith("row,rd_own,lb,given,predicted,overall_outlier\n")
        assert text.endswith("\n")
        assert len(text.splitlines()) == 1 + len(spec.points)

    def test_header_is_checked(self):
        with pytest.raises(DataError, match="header"):
            read_lb_points(io.StringIO("a,b\n1,2\n"))

    def test_field_count_is_checked(self):
        bad = "row,rd_own,lb,given,predicted,overall_outlier\n1,2,3\n"
        with pytest.raises(DataError, match="line 2"):
            read_lb_points(io.StringIO(bad))

    def test_bad_number_is_reported(self):
        bad = "row,rd_own,lb,given,predicted,overall_outlier\n1,x,3,1,1,0\n"
        with pytest.raises(DataError, match="line 2"):
            read_lb_points(io.StringIO(bad))


class TestSvg:
    def test_document_structure(self, demo_model):
        X, y, model = demo_model
        spec = lb_points(model, X, y, 2)
        svg = render_lb_svg(spec)
        assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" version="1.1"')
        assert svg.endswith("</svg>\n")
        assert ">class 2</text>" in svg
        assert svg.count("<circle") == len(spec.points)

    def test_cutoff_lines_at_expected_positions(self, demo_model):
        X, y, model = demo_model
        spec = lb_points(model, X, y, 2)
        svg = render_lb_svg(spec, width=800, height=600)
        # reproduce the documented geometry: 70/24/26/58 margins with
        # axes spanning 1.08 times the largest value
        left, right, top, bottom = 70.0, 24.0, 26.0, 58.0
        plot_w, plot_h = 800 - left - right, 600 - top - bottom
        x_hi = 1.08 * max([spec.rd_cutoff] + [p.rd_own for p in spec.points])
        y_hi = 1.08 * max([spec.lb_cutoff] + [p.lb for p in spec.points])
        x_cut = left + plot_w * spec.rd_cutoff / x_hi
        y_cut = top + plot_h * (1.0 - spec.lb_cutoff / y_hi)
        assert f'<line x1="{x_cut:.2f}" y1="{top:.2f}" x2="{x_cut:.2f}"' in svg
        assert f'y2="{y_cut:.2f}" stroke="#888888" stroke-width="1" stroke-dasharray="6 4"/>' in svg

    def test_overall_outliers_are_empty_circles(self, demo_model):
        X, y, model = demo_model
        spec = lb_points(model, X, y, 2)
        svg = render_lb_svg(spec)
        hollow = svg.count('r="3.4" fill="none"')
        want = sum(1 for p in spec.points if p.overall_outlier)
        assert want > 0
        assert hollow == want

    def test_deterministic(self, demo_model):
        X, y, model = demo_model
        spec = lb_points(model, X, y, 1)
        assert render_lb_svg(spec) == render_lb_svg(spec)


def test_class_color_cycles():
    assert class_color(1) == "#ff7f0e"
    assert class_color(2) == "#1f77b4"
    assert class_color(11) == class_color(1)


def reference_lb_csv(spec):
    """The per-point writer that write_lb_csv replaced."""
    lines = ["row,rd_own,lb,given,predicted,overall_outlier"]
    for pt in spec.points:
        lines.append(
            f"{pt.row},{pt.rd_own:.9g},{pt.lb:.9g},{pt.given},{pt.predicted},{int(pt.overall_outlier)}"
        )
    return "\n".join(lines) + "\n"


def random_spec(n, seed):
    rng = np.random.default_rng(seed)
    rd = np.abs(rng.standard_normal(n)) * 10.0 ** rng.integers(-30, 30, n)
    rd[::7] = 0.0
    points = tuple(
        LbPoint(
            row=int(rng.integers(0, 10**6)),
            rd_own=float(rd[i]),
            lb=float(rng.random()) if i % 5 else 0.0,
            given=3,
            predicted=int(rng.integers(1, 4)),
            overall_outlier=bool(rng.random() < 0.2),
        )
        for i in range(n)
    )
    return LbPlotSpec(given_class=3, points=points, rd_cutoff=3.0, lb_cutoff=LB_CUTOFF)


@pytest.mark.parametrize("n", [0, 1, 17, fileio.CHUNK_ROWS + 5])
def test_csv_matches_per_point_reference(n):
    spec = random_spec(n, seed=n)
    buf = io.StringIO()
    write_lb_csv(spec, buf)
    assert buf.getvalue() == reference_lb_csv(spec)


def test_csv_path_is_written_atomically(tmp_path, monkeypatch):
    calls = []
    original = fileio.write_text_atomic

    def spy(path, text):
        calls.append(path)
        return original(path, text)

    monkeypatch.setattr(fileio, "write_text_atomic", spy)
    spec = random_spec(20, seed=1)
    target = tmp_path / "lb.csv"
    write_lb_csv(spec, target)
    assert calls == [target]
    assert target.read_text(encoding="utf-8") == reference_lb_csv(spec)
    assert [p.name for p in tmp_path.iterdir()] == ["lb.csv"]


def test_csv_peak_memory_bounded_by_output():
    # Rows are short (about 35 bytes), so the six column arrays built from
    # the points weigh more against the text than in the data_io writers:
    # 3.2x measured, against 4.6x for the per-point writer.
    spec = random_spec(50_000, seed=2)
    out = []
    tracemalloc.start()
    try:
        write_lb_csv(spec, mock.Mock(write=out.append))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4.0 * len(out[0]), (peak, len(out[0]))

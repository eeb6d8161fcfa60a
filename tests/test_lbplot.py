"""Tests for the label-bias diagnostic points, CSV, and SVG rendering."""
import io
import math
import tracemalloc
from dataclasses import replace
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest

from robustqda import fileio
from robustqda.core import chi2_quantile
from robustqda.data_io import encode_labels
from robustqda.errors import DataError, DimensionMismatch
from robustqda.lbplot import (
    _PALETTE,
    LB_CUTOFF,
    LbPlotSpec,
    lb_points,
    render_lb_svg,
    write_lb_csv,
)
from robustqda.qda import classify_rows, fit_qda
from robustqda.sim import two_class_demo


@pytest.fixture(scope="module")
def demo_model():
    X, y, info = two_class_demo()
    model = fit_qda(X, y, blocks=1, seed=0)
    return X, y, model


def test_lb_cutoff_constant():
    assert LB_CUTOFF == pytest.approx(math.sqrt(math.log(2.0)), abs=1e-15)
    assert LB_CUTOFF == pytest.approx(0.8325546111576977, abs=1e-15)


def test_points_match_classifier(demo_model):
    X, y, model = demo_model
    spec = lb_points(model, X, y, 2)
    rows = np.flatnonzero(y == 2)
    assert spec.given_class == 2
    assert spec.row.tolist() == rows.tolist()
    labels, scores, rd, min_rd = classify_rows(model, X[rows])
    for i in range(rows.size):
        assert spec.rd_own[i] == pytest.approx(rd[i, 1], abs=1e-12)
        want_lb = math.sqrt(scores[i].max() - scores[i, 1])
        assert spec.lb[i] == pytest.approx(want_lb, abs=1e-12)
        assert spec.predicted[i] == int(np.argmax(scores[i]) + 1)
        assert spec.overall_outlier[i] == (min_rd[i] > model.outlier_cutoff)
    assert spec.rd_cutoff == pytest.approx(math.sqrt(chi2_quantile(2, 0.99)), abs=1e-12)


def test_lb_zero_for_points_predicted_as_given(demo_model):
    X, y, model = demo_model
    spec = lb_points(model, X, y, 1)
    assert np.array_equal(spec.lb == 0.0, spec.predicted == 1)
    assert np.all(spec.lb >= 0.0)


def test_unknown_class_rejected(demo_model):
    X, y, model = demo_model
    with pytest.raises(DataError):
        lb_points(model, X, y, 3)
    with pytest.raises(DimensionMismatch):
        lb_points(model, X, y[:-1], 1)


def test_absent_class_yields_no_points(demo_model):
    X, y, model = demo_model
    spec = lb_points(model, X, np.ones_like(y), 2)
    for column in (spec.row, spec.rd_own, spec.lb, spec.predicted, spec.overall_outlier):
        assert column.shape == (0,)


class TestCsv:
    def test_written_fields_read_back(self, demo_model):
        X, y, model = demo_model
        spec = lb_points(model, X, y, 2)
        out = io.StringIO()
        write_lb_csv(spec, out)
        table = np.loadtxt(io.StringIO(out.getvalue()), delimiter=",", skiprows=1, ndmin=2)
        want = [
            (row, float(f"{rd_own:.9g}"), float(f"{lb:.9g}"), 2, predicted, int(outlier))
            for row, rd_own, lb, predicted, outlier in zip(
                spec.row.tolist(), spec.rd_own.tolist(), spec.lb.tolist(),
                spec.predicted.tolist(), spec.overall_outlier.tolist())
        ]
        assert len(want) > 0
        assert table.tolist() == [list(map(float, row)) for row in want]

    def test_file_target(self, demo_model, tmp_path):
        X, y, model = demo_model
        spec = lb_points(model, X, y, 1)
        path = tmp_path / "lb.csv"
        write_lb_csv(spec, path)
        text = path.read_text()
        assert text.startswith("row,rd_own,lb,given,predicted,overall_outlier\n")
        assert text.endswith("\n")
        assert len(text.splitlines()) == 1 + spec.row.size


class TestSvg:
    def test_document_structure(self, demo_model):
        X, y, model = demo_model
        spec = lb_points(model, X, y, 2)
        svg = render_lb_svg(spec)
        assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" version="1.1"')
        assert svg.endswith("</svg>\n")
        assert ">class 2</text>" in svg
        assert svg.count("<circle") == spec.row.size

    def test_cutoff_lines_at_expected_positions(self, demo_model):
        X, y, model = demo_model
        spec = lb_points(model, X, y, 2)
        svg = render_lb_svg(spec)
        # reproduce the documented geometry: 70/24/26/58 margins with
        # axes spanning 1.08 times the largest value
        left, right, top, bottom = 70.0, 24.0, 26.0, 58.0
        plot_w, plot_h = 800 - left - right, 600 - top - bottom
        x_hi = 1.08 * max([spec.rd_cutoff] + spec.rd_own.tolist())
        y_hi = 1.08 * max([LB_CUTOFF] + spec.lb.tolist())
        x_cut = left + plot_w * spec.rd_cutoff / x_hi
        y_cut = top + plot_h * (1.0 - LB_CUTOFF / y_hi)
        assert f'<line x1="{x_cut:.2f}" y1="{top:.2f}" x2="{x_cut:.2f}"' in svg
        assert f'y2="{y_cut:.2f}" stroke="#888888" stroke-width="1" stroke-dasharray="6 4"/>' in svg

    def test_overall_outliers_are_empty_circles(self, demo_model):
        X, y, model = demo_model
        spec = lb_points(model, X, y, 2)
        svg = render_lb_svg(spec)
        hollow = svg.count('r="3.4" fill="none"')
        want = int(np.count_nonzero(spec.overall_outlier))
        assert want > 0
        assert hollow == want

    def test_deterministic(self, demo_model):
        X, y, model = demo_model
        spec = lb_points(model, X, y, 1)
        assert render_lb_svg(spec) == render_lb_svg(spec)


def test_class_color_cycles():
    spec = spec_from_points(
        [Point(0, 1.0, 0.5, 3, 1, False), Point(1, 1.0, 0.5, 3, 2, False),
         Point(2, 1.0, 0.5, 3, 11, True)],
        given=3,
        rd_cutoff=3.0,
    )
    circles = [line for line in render_lb_svg(spec).splitlines() if line.startswith("<circle")]
    assert 'r="2.6" fill="#ff7f0e"' in circles[0]
    assert 'r="2.6" fill="#1f77b4"' in circles[1]
    assert 'r="3.4" fill="none" stroke="#ff7f0e"' in circles[2]


def test_spec_columns_are_read_only(demo_model):
    X, y, model = demo_model
    spec = lb_points(model, X, y, 2)
    for column in (spec.row, spec.rd_own, spec.lb, spec.predicted, spec.overall_outlier):
        with pytest.raises(ValueError):
            column[0] = 0


# ---------------------------------------------------------------------------
# Per-row oracle: the row-object implementation that the columns replaced.
# lb_points must hold its values and both writers must give its bytes.

class Point(NamedTuple):
    row: int
    rd_own: float
    lb: float
    given: int
    predicted: int
    overall_outlier: bool


def reference_points(model, X, y, given):
    """One record per row labeled ``given``, built one row at a time."""
    X = np.asarray(X, dtype=np.float64)
    rows = np.flatnonzero(np.asarray(y) == given)
    points = []
    if rows.size:
        _, scores, rd, min_rd = classify_rows(model, X[rows])
        best = scores.max(axis=1)
        for i in range(rows.size):
            points.append(
                Point(
                    row=int(rows[i]),
                    rd_own=float(rd[i, given - 1]),
                    lb=float(math.sqrt(best[i] - scores[i, given - 1])),
                    given=given,
                    predicted=int(np.argmax(scores[i]) + 1),
                    overall_outlier=bool(min_rd[i] > model.outlier_cutoff),
                )
            )
    return points


def reference_lb_csv(points):
    lines = ["row,rd_own,lb,given,predicted,overall_outlier"]
    for pt in points:
        lines.append(
            f"{pt.row},{pt.rd_own:.9g},{pt.lb:.9g},{pt.given},{pt.predicted},{int(pt.overall_outlier)}"
        )
    return "\n".join(lines) + "\n"


def reference_lb_svg(points, given, rd_cutoff, lb_cutoff):
    width, height = 800, 600
    left, right, top, bottom = 70.0, 24.0, 26.0, 58.0
    plot_w = width - left - right
    plot_h = height - top - bottom
    x_hi = 1.08 * max([rd_cutoff] + [pt.rd_own for pt in points])
    y_hi = 1.08 * max([lb_cutoff] + [pt.lb for pt in points])

    def sx(v):
        return left + plot_w * (v / x_hi)

    def sy(v):
        return top + plot_h * (1.0 - v / y_hi)

    axis = 'stroke="#333333" stroke-width="1"/>'
    dashed = 'stroke="#888888" stroke-width="1" stroke-dasharray="6 4"/>'
    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{left:.2f}" y="{top:.2f}" width="{plot_w:.2f}" height="{plot_h:.2f}" '
        'fill="none" ' + axis,
    ]
    for i in range(6):
        vx, vy = x_hi * i / 5.0, y_hi * i / 5.0
        px, py = sx(vx), sy(vy)
        out += [
            f'<line x1="{px:.2f}" y1="{top + plot_h:.2f}" x2="{px:.2f}" y2="{top + plot_h + 5:.2f}" '
            + axis,
            f'<text x="{px:.2f}" y="{top + plot_h + 20:.2f}" font-family="sans-serif" '
            f'font-size="12" text-anchor="middle">{vx:.3g}</text>',
            f'<line x1="{left - 5:.2f}" y1="{py:.2f}" x2="{left:.2f}" y2="{py:.2f}" ' + axis,
            f'<text x="{left - 9:.2f}" y="{py + 4:.2f}" font-family="sans-serif" '
            f'font-size="12" text-anchor="end">{vy:.3g}</text>',
        ]
    out += [
        f'<text x="{left + plot_w / 2:.2f}" y="{height - 14:.2f}" font-family="sans-serif" '
        'font-size="14" text-anchor="middle">RD</text>',
        f'<text x="20" y="{top + plot_h / 2:.2f}" font-family="sans-serif" font-size="14" '
        f'text-anchor="middle" transform="rotate(-90 20 {top + plot_h / 2:.2f})">LB</text>',
        f'<text x="{left:.2f}" y="{top - 8:.2f}" font-family="sans-serif" font-size="13" '
        f'text-anchor="start">class {given}</text>',
        f'<line x1="{sx(rd_cutoff):.2f}" y1="{top:.2f}" x2="{sx(rd_cutoff):.2f}" '
        f'y2="{top + plot_h:.2f}" ' + dashed,
        f'<line x1="{left:.2f}" y1="{sy(lb_cutoff):.2f}" x2="{left + plot_w:.2f}" '
        f'y2="{sy(lb_cutoff):.2f}" ' + dashed,
    ]
    for pt in points:
        color = _PALETTE[(pt.predicted - 1) % len(_PALETTE)]
        cx, cy = sx(pt.rd_own), sy(pt.lb)
        if pt.overall_outlier:
            out.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3.4" fill="none" '
                       f'stroke="{color}" stroke-width="1.4"/>')
        else:
            out.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="2.6" fill="{color}"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def spec_from_points(points, given, rd_cutoff):
    dtypes = (np.int64, np.float64, np.float64, np.int64, np.int64, bool)
    row, rd_own, lb, _, predicted, outlier = (
        np.array([pt[j] for pt in points], dtype=dtype) for j, dtype in enumerate(dtypes)
    )
    return LbPlotSpec(given_class=given, row=row, rd_own=rd_own, lb=lb, predicted=predicted,
                      overall_outlier=outlier, rd_cutoff=rd_cutoff)


def random_points(n, seed):
    rng = np.random.default_rng(seed)
    rd = np.abs(rng.standard_normal(n)) * 10.0 ** rng.integers(-30, 30, n)
    rd[::7] = 0.0
    return [
        Point(
            row=int(rng.integers(0, 10**6)),
            rd_own=float(rd[i]),
            lb=float(rng.random()) if i % 5 else 0.0,
            given=3,
            predicted=int(rng.integers(1, 13)),
            overall_outlier=bool(rng.random() < 0.2),
        )
        for i in range(n)
    ]


def assert_matches_reference(model, X, y, given):
    """The columns hold the oracle's values, and both writers its bytes."""
    spec = lb_points(model, X, y, given)
    points = reference_points(model, X, y, given)
    assert spec.row.tolist() == [pt.row for pt in points]
    assert spec.rd_own.tolist() == [pt.rd_own for pt in points]
    assert spec.lb.tolist() == [pt.lb for pt in points]
    assert spec.predicted.tolist() == [pt.predicted for pt in points]
    assert spec.overall_outlier.tolist() == [pt.overall_outlier for pt in points]
    buf = io.StringIO()
    write_lb_csv(spec, buf)
    assert buf.getvalue() == reference_lb_csv(points)
    assert render_lb_svg(spec) == reference_lb_svg(points, given, spec.rd_cutoff, LB_CUTOFF)
    return spec


class TestMatchesPerRowReference:
    @pytest.mark.parametrize("given", [1, 2])
    def test_demo_classes(self, demo_model, given):
        X, y, model = demo_model
        spec = assert_matches_reference(model, X, y, given)
        assert spec.row.size > 0

    def test_overall_outliers(self, demo_model):
        X, y, model = demo_model
        spec = assert_matches_reference(model, X, y, 2)
        assert 0 < np.count_nonzero(spec.overall_outlier) < spec.row.size

    def test_class_with_no_rows(self, demo_model):
        X, y, model = demo_model
        spec = assert_matches_reference(model, X, np.ones_like(y), 2)
        assert spec.row.size == 0

    def test_single_row(self, demo_model):
        X, y, model = demo_model
        one = np.ones_like(y)
        one[37] = 2
        spec = assert_matches_reference(model, X, one, 2)
        assert spec.row.tolist() == [37]

    def test_tied_scores_take_the_first_class(self, demo_model):
        X, y, model = demo_model
        cm = model.classes[0]
        twin = replace(model, classes=(cm, cm))
        spec = assert_matches_reference(twin, X, y, 2)
        assert np.all(spec.predicted == 1)
        assert np.all(spec.lb == 0.0)

    def test_named_labels(self, demo_model):
        X, y, _ = demo_model
        names = np.array(["setosa", "virginica"])[y - 1]
        codes, table = encode_labels(names.tolist())
        assert table == ("setosa", "virginica")
        model = fit_qda(X, codes, mode="classical")
        for given in (1, 2):
            assert_matches_reference(model, X, codes, given)

    def test_three_classes_across_csv_chunks(self):
        rng = np.random.default_rng(3)
        centers = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
        y = rng.integers(1, 4, fileio.CHUNK_ROWS * 4 + 11)
        X = centers[y - 1] + rng.standard_normal((y.size, 3))
        X[::61] += 25.0
        model = fit_qda(X, y, mode="classical")
        spec = assert_matches_reference(model, X, y, 3)
        assert spec.row.size > fileio.CHUNK_ROWS
        assert set(spec.predicted.tolist()) == {1, 2, 3}


@pytest.mark.parametrize("n", [0, 1, 17, fileio.CHUNK_ROWS + 5])
def test_csv_matches_per_point_reference(n):
    points = random_points(n, seed=n)
    spec = spec_from_points(points, given=3, rd_cutoff=3.0)
    buf = io.StringIO()
    write_lb_csv(spec, buf)
    assert buf.getvalue() == reference_lb_csv(points)
    assert render_lb_svg(spec) == reference_lb_svg(points, 3, 3.0, LB_CUTOFF)


def test_csv_path_is_written_atomically(tmp_path, monkeypatch):
    calls = []
    original = fileio.write_text_atomic

    def spy(path, text):
        calls.append(path)
        return original(path, text)

    monkeypatch.setattr(fileio, "write_text_atomic", spy)
    points = random_points(20, seed=1)
    target = tmp_path / "lb.csv"
    write_lb_csv(spec_from_points(points, given=3, rd_cutoff=3.0), target)
    assert calls == [target]
    assert target.read_text(encoding="utf-8") == reference_lb_csv(points)
    assert [p.name for p in tmp_path.iterdir()] == ["lb.csv"]


def test_csv_peak_memory_bounded_by_output():
    # Rows are short (about 35 bytes), so the chunk's Python values weigh
    # more against the text than in the data_io writers: 2.1x measured,
    # against 3.2x when the columns were built from row objects.
    spec = spec_from_points(random_points(50_000, seed=2), given=3, rd_cutoff=3.0)
    out = []
    tracemalloc.start()
    try:
        write_lb_csv(spec, mock.Mock(write=out.append))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4.0 * len(out[0]), (peak, len(out[0]))

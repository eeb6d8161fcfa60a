"""Label-bias diagnostics: per-class (RD, LB) points, CSV, and SVG plots.

For every observation carrying a given class label the plot shows the
robust distance to that class on the x axis and the label bias (square
root of the score gap to the best class) on the y axis.  Points beyond
the distance cutoff on the right are outlying for their own class;
points above sqrt(ln 2) would flip class under an even prior.  Overall
outliers (beyond the cutoff for every class) are drawn as empty circles.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass, fields

import numpy as np

from .core import as_data_matrix
from .errors import DataError, DimensionMismatch
from .fileio import csv_text, write_text
from .qda import QdaModel, classify_rows

__all__ = [
    "LB_CUTOFF",
    "LbPlotSpec",
    "LbPoint",
    "lb_points",
    "render_lb_svg",
    "write_lb_csv",
]

# A label bias above sqrt(ln 2) means the best class is at least twice as
# likely as the given one under equal priors.
LB_CUTOFF = math.sqrt(math.log(2.0))

_CSV_HEADER = "row,rd_own,lb,given,predicted,overall_outlier"

# Fill colors keyed by predicted class (1-based).
_PALETTE = (
    "#ff7f0e",  # 1: orange
    "#1f77b4",  # 2: blue
    "#2ca02c",  # 3: green
    "#d62728",  # 4: red
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
)


def class_color(label: int) -> str:
    return _PALETTE[(int(label) - 1) % len(_PALETTE)]


@dataclass(frozen=True)
class LbPoint:
    row: int
    rd_own: float
    lb: float
    given: int
    predicted: int
    overall_outlier: bool


@dataclass(frozen=True)
class LbPlotSpec:
    given_class: int
    points: tuple
    rd_cutoff: float
    lb_cutoff: float


def lb_points(model: QdaModel, X, y, given_class: int) -> LbPlotSpec:
    """Diagnostic points for every row of ``X`` labeled ``given_class``.

    ``predicted`` keeps the argmax class even for overall outliers, so a
    point's color still shows which class it leans toward; the
    ``overall_outlier`` flag carries the class-0 information separately.
    """
    X = as_data_matrix(X)
    y = np.asarray(y)
    if y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise DimensionMismatch("labels must be a vector matching the rows of X")
    g = int(given_class)
    if not (1 <= g <= model.n_classes):
        raise DataError(f"class {given_class} is outside 1..{model.n_classes}")
    rows = np.flatnonzero(y == g)
    points = []
    if rows.size:
        _, scores, rd, min_rd = classify_rows(model, X[rows])
        best = scores.max(axis=1)
        for i in range(rows.size):
            points.append(
                LbPoint(
                    row=int(rows[i]),
                    rd_own=float(rd[i, g - 1]),
                    lb=float(math.sqrt(best[i] - scores[i, g - 1])),
                    given=g,
                    predicted=int(np.argmax(scores[i]) + 1),
                    overall_outlier=bool(min_rd[i] > model.outlier_cutoff),
                )
            )
    return LbPlotSpec(given_class=g, points=tuple(points), rd_cutoff=float(model.outlier_cutoff), lb_cutoff=LB_CUTOFF)


def write_lb_csv(spec: LbPlotSpec, target) -> None:
    """Write the point list as CSV (comma, dot decimals, LF, header).

    ``target`` may be a path, written atomically, or a text file object.
    Floats carry nine significant digits.
    """
    columns = [np.array([getattr(pt, f.name) for pt in spec.points]) for f in fields(LbPoint)]
    write_text(target, csv_text(_CSV_HEADER, "%d,%.9g,%.9g,%d,%d,%d", columns))


def render_lb_svg(spec: LbPlotSpec) -> str:
    """Deterministic standalone SVG 1.1 document for one class's plot."""
    width, height = 800, 600
    left, right, top, bottom = 70.0, 24.0, 26.0, 58.0
    plot_w = width - left - right
    plot_h = height - top - bottom
    max_rd = max([spec.rd_cutoff] + [pt.rd_own for pt in spec.points])
    max_lb = max([spec.lb_cutoff] + [pt.lb for pt in spec.points])
    x_hi = 1.08 * max_rd
    y_hi = 1.08 * max_lb

    def sx(v: float) -> float:
        return left + plot_w * (v / x_hi)

    def sy(v: float) -> float:
        return top + plot_h * (1.0 - v / y_hi)

    out = io.StringIO()
    out.write(
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">\n'
    )
    out.write(f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>\n')
    # frame
    out.write(
        f'<rect x="{left:.2f}" y="{top:.2f}" width="{plot_w:.2f}" height="{plot_h:.2f}" '
        'fill="none" stroke="#333333" stroke-width="1"/>\n'
    )
    # ticks and grid labels
    for i in range(6):
        vx = x_hi * i / 5.0
        px = sx(vx)
        out.write(
            f'<line x1="{px:.2f}" y1="{top + plot_h:.2f}" x2="{px:.2f}" y2="{top + plot_h + 5:.2f}" '
            'stroke="#333333" stroke-width="1"/>\n'
        )
        out.write(
            f'<text x="{px:.2f}" y="{top + plot_h + 20:.2f}" font-family="sans-serif" '
            f'font-size="12" text-anchor="middle">{vx:.3g}</text>\n'
        )
        vy = y_hi * i / 5.0
        py = sy(vy)
        out.write(
            f'<line x1="{left - 5:.2f}" y1="{py:.2f}" x2="{left:.2f}" y2="{py:.2f}" '
            'stroke="#333333" stroke-width="1"/>\n'
        )
        out.write(
            f'<text x="{left - 9:.2f}" y="{py + 4:.2f}" font-family="sans-serif" '
            f'font-size="12" text-anchor="end">{vy:.3g}</text>\n'
        )
    # axis labels
    out.write(
        f'<text x="{left + plot_w / 2:.2f}" y="{height - 14:.2f}" font-family="sans-serif" '
        'font-size="14" text-anchor="middle">RD</text>\n'
    )
    out.write(
        f'<text x="20" y="{top + plot_h / 2:.2f}" font-family="sans-serif" font-size="14" '
        f'text-anchor="middle" transform="rotate(-90 20 {top + plot_h / 2:.2f})">LB</text>\n'
    )
    out.write(
        f'<text x="{left:.2f}" y="{top - 8:.2f}" font-family="sans-serif" font-size="13" '
        f'text-anchor="start">class {spec.given_class}</text>\n'
    )
    # cutoff lines
    out.write(
        f'<line x1="{sx(spec.rd_cutoff):.2f}" y1="{top:.2f}" x2="{sx(spec.rd_cutoff):.2f}" '
        f'y2="{top + plot_h:.2f}" stroke="#888888" stroke-width="1" stroke-dasharray="6 4"/>\n'
    )
    out.write(
        f'<line x1="{left:.2f}" y1="{sy(spec.lb_cutoff):.2f}" x2="{left + plot_w:.2f}" '
        f'y2="{sy(spec.lb_cutoff):.2f}" stroke="#888888" stroke-width="1" stroke-dasharray="6 4"/>\n'
    )
    # points: dots for ordinary rows, empty circles for overall outliers
    for pt in spec.points:
        color = class_color(pt.predicted)
        cx, cy = sx(pt.rd_own), sy(pt.lb)
        if pt.overall_outlier:
            out.write(
                f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3.4" fill="none" '
                f'stroke="{color}" stroke-width="1.4"/>\n'
            )
        else:
            out.write(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="2.6" fill="{color}"/>\n')
    out.write("</svg>\n")
    return out.getvalue()

"""Label-bias diagnostics: per-class (RD, LB) columns, CSV, and SVG plots.

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
from dataclasses import dataclass

import numpy as np

from .core import as_data_matrix
from .errors import DataError, DimensionMismatch
from .fileio import csv_text, write_text
from .qda import OUTLIER_LABEL, QdaModel, classify_rows

__all__ = [
    "LB_CUTOFF",
    "LbPlotSpec",
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


@dataclass(frozen=True)
class LbPlotSpec:
    """The rows labeled ``given_class``, in row order, as read-only columns:
    ``row`` (index into the data), ``rd_own`` (robust distance to the given
    class), ``lb`` (label bias), ``predicted`` (argmax class, 1-based) and
    ``overall_outlier`` (beyond the cutoff for every class).  The plot's
    cutoffs are ``rd_cutoff``, the model's, and the constant
    ``LB_CUTOFF``."""

    given_class: int
    row: np.ndarray
    rd_own: np.ndarray
    lb: np.ndarray
    predicted: np.ndarray
    overall_outlier: np.ndarray
    rd_cutoff: float

    def __post_init__(self):
        for column in (self.row, self.rd_own, self.lb, self.predicted, self.overall_outlier):
            column.setflags(write=False)


def lb_points(model: QdaModel, X, y, given_class: int) -> LbPlotSpec:
    """Diagnostic columns for every row of ``X`` labeled ``given_class``.

    ``predicted`` keeps the argmax class (the first on a tie) even for
    overall outliers, so a point's color still shows which class it leans
    toward; the ``overall_outlier`` flag carries the class-0 information
    separately.  ``lb`` is exactly 0 where ``predicted == given_class``.
    """
    X = as_data_matrix(X)
    y = np.asarray(y)
    if y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise DimensionMismatch("labels must be a vector matching the rows of X")
    g = int(given_class)
    G = model.n_classes
    if not (1 <= g <= G):
        raise DataError(f"class {given_class} is outside 1..{G}")
    rows = np.flatnonzero(y == g)
    labels, scores, rd = np.empty(0, np.int64), np.empty((0, G)), np.empty((0, G))
    if rows.size:
        labels, scores, rd, _ = classify_rows(model, X[rows])
    return LbPlotSpec(
        given_class=g,
        row=rows,
        rd_own=rd[:, g - 1].copy(),
        lb=np.sqrt(scores.max(axis=1) - scores[:, g - 1]),
        predicted=np.argmax(scores, axis=1) + 1,
        overall_outlier=labels == OUTLIER_LABEL,
        rd_cutoff=float(model.outlier_cutoff),
    )


def write_lb_csv(spec: LbPlotSpec, target) -> None:
    """Write the table as CSV (comma, dot decimals, LF, header).

    ``target`` may be a path, written atomically, or a text file object.
    Floats carry nine significant digits.
    """
    columns = [spec.row, spec.rd_own, spec.lb, spec.predicted, spec.overall_outlier]
    row_format = f"%d,%.9g,%.9g,{spec.given_class:d},%d,%d"
    write_text(target, csv_text(_CSV_HEADER, row_format, columns))


def render_lb_svg(spec: LbPlotSpec) -> str:
    """Deterministic standalone SVG 1.1 document for one class's plot."""
    width, height = 800, 600
    left, right, top, bottom = 70.0, 24.0, 26.0, 58.0
    plot_w = width - left - right
    plot_h = height - top - bottom
    max_rd = float(np.max(spec.rd_own, initial=spec.rd_cutoff))
    max_lb = float(np.max(spec.lb, initial=LB_CUTOFF))
    x_hi = 1.08 * max_rd
    y_hi = 1.08 * max_lb

    # float in, float out; array in, array out (the same bits per entry)
    def sx(v):
        return left + plot_w * (v / x_hi)

    def sy(v):
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
        f'<line x1="{left:.2f}" y1="{sy(LB_CUTOFF):.2f}" x2="{left + plot_w:.2f}" '
        f'y2="{sy(LB_CUTOFF):.2f}" stroke="#888888" stroke-width="1" stroke-dasharray="6 4"/>\n'
    )
    # points: dots for ordinary rows, empty circles for overall outliers,
    # filled or stroked in the color of the predicted class
    styles = np.array(
        [f'r="2.6" fill="{color}"' for color in _PALETTE]
        + [f'r="3.4" fill="none" stroke="{color}" stroke-width="1.4"' for color in _PALETTE]
    )
    style = styles[(spec.predicted - 1) % len(_PALETTE) + len(_PALETTE) * spec.overall_outlier]
    circle = '<circle cx="%.2f" cy="%.2f" %s/>'
    out.write(csv_text(None, circle, [sx(spec.rd_own), sy(spec.lb), style]))
    out.write("</svg>\n")
    return out.getvalue()

"""CSV ingestion and emission for the command-line tools.

The dialect is deliberately plain: comma separators, a mandatory header
row, one observation per line and no blank lines.  LF and CRLF line
endings are both read, and cells may be quoted.  Feature cells must
parse as finite decimals.  A body without quotes is parsed by one
``np.loadtxt`` call; the cell-by-cell parse runs only for inputs that
call declines, to read quoted cells and to name the offending row and
column in errors.  Labels may be integers (validated as 1..G at fit
time) or arbitrary strings, in which case the distinct names are mapped
to 1..G in sorted order and the mapping travels with the model file.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .fileio import csv_text, write_text

__all__ = [
    "Dataset",
    "encode_labels",
    "encode_with_names",
    "read_dataset",
    "write_dataset",
    "write_predictions_csv",
]


@dataclass(frozen=True)
class Dataset:
    """Parsed CSV contents.

    ``labels_raw`` holds the stripped label cells as text (None when no
    label column was requested); encoding to 1..G happens separately so
    prediction-time data can reuse a model's name mapping.
    """

    X: np.ndarray
    feature_names: tuple
    labels_raw: tuple | None = None

    def __post_init__(self):
        self.X.setflags(write=False)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


def read_dataset(source, label_col: str | None = None) -> Dataset:
    """Read a CSV file (path or open text file) into a Dataset.

    ``label_col`` names the column to split off as labels; the remaining
    columns are features, kept in header order.  Raises DataError for a
    missing header, ragged rows, or any feature cell that is not a finite
    number, citing the data row (1-based) and column name, and for bytes
    that are not UTF-8.  Text the csv module rejects, such as a cell over
    its field limit, raises ``csv.Error``.
    """
    try:
        text = source.read() if hasattr(source, "read") else Path(source).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"CSV is not UTF-8 text: {exc}") from None
    # A quoted cell may hold commas or line breaks, so a file with any quote
    # goes through the csv module whole; otherwise the header is the first
    # line and the body is left to _parse_body.
    quoted = '"' in text
    head, _, body = text.partition("\n")
    rows = csv.reader(io.StringIO(text if quoted else head))
    first = next(rows, None)
    if first is None:
        raise DataError("empty CSV: expected a header row")
    header = [name.strip() for name in first]
    if len(set(header)) != len(header):
        raise DataError("duplicate column names in header")
    label_idx = None
    if label_col is not None:
        if label_col not in header:
            raise DataError(f"no column named {label_col!r} (header: {', '.join(header)})")
        label_idx = header.index(label_col)
    feature_idx = [j for j in range(len(header)) if j != label_idx]
    if not feature_idx:
        raise DataError("no feature columns left after removing the label column")
    names = tuple(header[j] for j in feature_idx)

    parsed = None if quoted else _parse_body(body, len(header), feature_idx, label_idx)
    if parsed is None:
        body_rows = list(rows) if quoted else list(csv.reader(io.StringIO(body)))
        parsed = _parse_cells(body_rows, header, feature_idx, label_idx)
    data, labels = parsed
    return Dataset(X=data, feature_names=names, labels_raw=labels)


def _parse_body(body: str, n_cols: int, feature_idx: list, label_idx: int | None):
    """Parse a quote-free CSV body with one ``np.loadtxt`` call.

    Returns ``(X, labels)``, or None when the per-cell reader must decide:
    a blank line (``loadtxt`` skips those, the dialect rejects them), a
    ragged row, a cell ``loadtxt`` cannot read (``1_000``, non-ASCII
    digits) or a non-finite value.  Every value it does return is the
    one ``float(cell.strip())`` gives.
    """
    if not body or body.isspace():  # loadtxt warns when it finds no rows
        return None
    lines = body.split("\n")
    if not lines[-1]:
        lines.pop()
    try:
        X = np.loadtxt(
            lines,
            delimiter=",",
            comments=None,
            quotechar=None,
            ndmin=2,
            usecols=None if label_idx is None else feature_idx,
        )
    except ValueError:
        return None
    if X.shape != (len(lines), len(feature_idx)) or not np.isfinite(X).all():
        return None
    if label_idx is None:
        return X, None
    # With usecols, loadtxt accepts rows wider than the header, so the
    # label pass also checks every row's cell count.
    labels = []
    for line in lines:
        cells = line.split(",")
        if len(cells) != n_cols:
            return None
        labels.append(cells[label_idx].strip())
    return X, tuple(labels)


def _parse_cells(rows: list, header: list, feature_idx: list, label_idx: int | None):
    """Cell-by-cell parse of the data rows; raises the first DataError in
    row order.  Handles every input, including those _parse_body declines."""
    data = np.empty((len(rows), len(feature_idx)))
    labels: list[str] | None = [] if label_idx is not None else None
    for i, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise DataError(f"row {i}: expected {len(header)} cells, got {len(row)}")
        for k, j in enumerate(feature_idx):
            cell = row[j].strip()
            try:
                value = float(cell)
            except ValueError:
                raise DataError(f"row {i}, column {header[j]!r}: {cell!r} is not a number") from None
            if not np.isfinite(value):
                raise DataError(f"row {i}, column {header[j]!r}: {cell!r} is not finite")
            data[i - 1, k] = value
        if labels is not None:
            labels.append(row[label_idx].strip())
    if data.shape[0] == 0:
        raise DataError("CSV contains a header but no data rows")
    return data, None if labels is None else tuple(labels)


def encode_labels(labels_raw) -> tuple[np.ndarray, tuple | None]:
    """Turn raw label cells into integer classes.

    If every cell parses as an integer the values pass through untouched
    (contiguity is checked at fit time) and the name table is None.
    Otherwise the distinct strings are mapped to 1..G in sorted order and
    returned as the second element.
    """
    try:
        y = np.array([int(cell) for cell in labels_raw], dtype=np.int64)
        return y, None
    except ValueError:
        pass
    names = tuple(sorted(set(labels_raw)))
    index = {name: g for g, name in enumerate(names, start=1)}
    return np.array([index[cell] for cell in labels_raw], dtype=np.int64), names


def encode_with_names(labels_raw, label_names) -> np.ndarray:
    """Encode labels against an existing name table (from a model file)."""
    index = {name: g for g, name in enumerate(label_names, start=1)}
    out = np.empty(len(labels_raw), dtype=np.int64)
    for i, cell in enumerate(labels_raw):
        if cell not in index:
            known = ", ".join(label_names)
            raise DataError(f"row {i + 1}: label {cell!r} is not one of the trained classes ({known})")
        out[i] = index[cell]
    return out


def write_dataset(target, X, feature_names=None, y=None, label_col: str = "label") -> None:
    """Write features (and optionally labels) as CSV.

    Floats use shortest round-trip decimals, so a write/read cycle
    reproduces the array bit for bit.  ``target`` may be a path or an
    open text file.
    """
    X = np.asarray(X, dtype=np.float64)
    n, p = X.shape
    if feature_names is None:
        feature_names = tuple(f"x{j + 1}" for j in range(p))
    if len(feature_names) != p:
        raise DataError(f"expected {p} feature names, got {len(feature_names)}")
    header = list(feature_names)
    columns = list(X.T)
    row_format = ",".join(["%r"] * p)
    if y is not None:
        y = np.asarray(y)
        if y.shape[0] != n:
            raise DataError("labels and data have different lengths")
        header.append(label_col)
        columns.append(y)
        row_format += ",%s"
    write_text(target, csv_text(",".join(header), row_format, columns))


def write_predictions_csv(target, labels, scores, min_rd, label_names=None) -> None:
    """Write classification output: row, predicted, min_rd, then one
    score column per class.  Predicted is the original class name when a
    name table is given; the outlier class always prints as 0.
    """
    codes = np.asarray(labels).astype(np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    min_rd = np.asarray(min_rd, dtype=np.float64)
    G = scores.shape[1]
    header = ["row", "predicted", "min_rd"] + [f"score_{g}" for g in range(1, G + 1)]
    shown = codes if label_names is None else np.array(["0", *label_names], dtype=object)[codes]
    columns = [np.arange(1, codes.shape[0] + 1), shown, min_rd, *scores.T]
    write_text(target, csv_text(",".join(header), "%d,%s" + ",%.9g" * (G + 1), columns))

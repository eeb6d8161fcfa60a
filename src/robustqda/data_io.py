"""CSV ingestion and emission for the command-line tools.

The dialect is deliberately plain: comma separators, a mandatory header
row, one observation per line and no blank lines.  LF, CRLF and CR
each end a row, as the csv module reads them, whatever the source;
cells may be quoted, keeping any line break as written.  Feature cells
must parse as finite decimals.  The csv module reads the header, quoted
or not.  A body without quotes is parsed by one ``np.loadtxt`` call; the
cell-by-cell parse runs only for bodies that call declines, to read
quoted cells and to name the offending row and column in errors.
Labels may be integers (validated as 1..G at fit time) or arbitrary
strings, in which case the distinct names are mapped to 1..G in sorted
order and the mapping travels with the model file.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .fileio import csv_text, read_text, write_text

__all__ = [
    "Dataset",
    "encode_labels",
    "encode_with_names",
    "read_dataset",
    "read_rows",
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
    number, citing the data row (1-based) and column name, for text the
    csv module rejects (a cell over its field limit), citing the row and
    the module's message, and, for a path, for bytes that are not UTF-8.
    A path's leading byte-order mark is dropped; an open file is read as
    its caller decoded it.
    """
    rows = read_rows(source, label_col)
    X, labels = rows.parse(*rows.split(1))
    return Dataset(X=X, feature_names=rows.feature_names, labels_raw=labels)


@dataclass(frozen=True)
class RowRange:
    """Whole lines ``body[start:stop]`` of a CSV body; ``first_row`` is
    the 1-based data row number of the first of them."""

    first_row: int
    start: int
    stop: int


@dataclass(frozen=True)
class CsvRows:
    """A CSV whose header is read and checked, with its body kept as text
    so that ranges of rows can be parsed apart, even in other processes."""

    header: list
    feature_idx: list
    label_idx: int | None
    body: str
    quoted: bool

    @property
    def feature_names(self) -> tuple:
        return tuple(self.header[j] for j in self.feature_idx)

    @property
    def line_count(self) -> int:
        """Lines in the body; a final line break ends the last line."""
        return self.body.count("\n") + (self.body[-1:] not in ("", "\n"))

    def split(self, parts: int) -> list[RowRange]:
        """Cut the body at line breaks into at most ``parts`` ranges of
        about equal length.  A quoted body stays whole, since a quoted
        cell may hold a line break."""
        body = self.body
        cuts = [0]
        for i in range(1, 1 if self.quoted else parts):
            cut = body.find("\n", max(0, i * len(body) // parts - 1)) + 1
            if cuts[-1] < cut < len(body):
                cuts.append(cut)
        cuts.append(len(body))
        ranges = [RowRange(1, 0, cuts[1])]
        for start, stop in zip(cuts[1:-1], cuts[2:]):
            first_row = ranges[-1].first_row + body.count("\n", ranges[-1].start, start)
            ranges.append(RowRange(first_row, start, stop))
        return ranges

    def parse(self, part: RowRange) -> tuple[np.ndarray, tuple | None]:
        """``(X, labels)`` of one range, by :func:`_parse_body` or, when
        it declines, :func:`_parse_cells`; errors cite file rows."""
        text = self.body[part.start:part.stop]
        header, feature_idx, label_idx = self.header, self.feature_idx, self.label_idx
        parsed = None if self.quoted else _parse_body(text, len(header), feature_idx, label_idx)
        if parsed is None:
            rows = []
            try:
                rows.extend(csv.reader(io.StringIO(text, newline="")))
            except csv.Error as exc:
                raise DataError(f"row {part.first_row + len(rows)}: {exc}") from None
            parsed = _parse_cells(rows, header, feature_idx, label_idx, part.first_row)
        return parsed


def read_rows(source, label_col: str | None = None) -> CsvRows:
    """Read a CSV's text and check its header, as :func:`read_dataset`
    does, leaving the body unparsed."""
    text = read_text(source, "CSV")
    # The csv module reads the header record from a prefix of the text,
    # doubled until the record ends inside it; the body starts after it.
    size = 4096
    while True:
        buf = io.StringIO(text[:size], newline="")
        try:
            first = next(csv.reader(buf), None)
        except csv.Error as exc:
            raise DataError(f"header row: {exc}") from None
        if buf.tell() < size or size >= len(text):
            break
        size *= 2
    body = text[buf.tell():]
    # Without quotes every line end ends a row, so CR and CRLF map to LF
    # exactly; a quoted cell may hold commas or line breaks.
    quoted = '"' in body
    if not quoted and "\r" in body:
        body = body.replace("\r\n", "\n").replace("\r", "\n")
    if not (first or quoted):  # no text, or a blank first line of a quote-free text
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
    return CsvRows(header, feature_idx, label_idx, body, quoted)


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


def _parse_cells(rows: list, header: list, feature_idx: list, label_idx: int | None,
                 first_row: int = 1):
    """Cell-by-cell parse of the data rows, numbered from ``first_row``;
    raises the first DataError in row order.  Handles every input,
    including those _parse_body declines."""
    data = np.empty((len(rows), len(feature_idx)))
    labels: list[str] | None = [] if label_idx is not None else None
    for i, row in enumerate(rows, start=first_row):
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
            data[i - first_row, k] = value
        if labels is not None:
            labels.append(row[label_idx].strip())
    if data.shape[0] == 0:
        raise DataError("CSV contains a header but no data rows")
    return data, None if labels is None else tuple(labels)


def encode_labels(labels_raw) -> tuple[np.ndarray, tuple | None]:
    """Turn raw label cells into integer classes.

    If every cell parses as an integer the values pass through untouched
    (contiguity is checked at fit time) and the name table is None.
    Otherwise the distinct strings, none of which may be ``0``, are
    mapped to 1..G in sorted order and returned as the second element.
    """
    try:
        y = np.array([int(cell) for cell in labels_raw], dtype=np.int64)
        return y, None
    except ValueError:
        pass
    names = tuple(sorted(set(labels_raw)))
    if "0" in names:
        raise DataError("no class may be named '0', the outlier class's label")
    index = {name: g for g, name in enumerate(names, start=1)}
    return np.array([index[cell] for cell in labels_raw], dtype=np.int64), names


def encode_with_names(labels_raw, label_names) -> np.ndarray:
    """Encode labels against an existing name table (from a model file)."""
    index = {name: g for g, name in enumerate(label_names, start=1)}
    out = np.array([index.get(cell, 0) for cell in labels_raw], dtype=np.int64)
    if not out.all():
        i = int(np.argmin(out))  # the first unknown label
        known = ", ".join(label_names)
        raise DataError(f"row {i + 1}: label {labels_raw[i]!r} is not one of the trained classes ({known})")
    return out


def write_dataset(target, X, feature_names=None, y=None, label_col: str = "label") -> None:
    """Write features (and optionally labels) as CSV.

    Floats use shortest round-trip decimals, so a write/read cycle
    reproduces the array bit for bit; names and labels are written as
    CSV cells.  ``target`` may be a path or an open text file.
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
        if y.dtype.kind in "OU":  # names: quote each distinct one once
            distinct, index = np.unique(y.astype(str), return_inverse=True)
            y = np.array([_csv_cell(v) for v in distinct.tolist()], dtype=object)[index]
        columns.append(y)
        row_format += ",%s"
    write_text(target, csv_text(",".join(map(_csv_cell, header)), row_format, columns))


def _csv_cell(text: str) -> str:
    """``text`` as one CSV cell, quoted as ``csv.QUOTE_MINIMAL`` quotes it."""
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def write_predictions_csv(target, labels, scores, min_rd, label_names=None, first_row=1) -> None:
    """Write classification output: row, predicted, min_rd, then one
    score column per class.  Predicted is the class name, as a CSV cell,
    when a name table is given; the outlier class always prints as 0.

    Rows are numbered from ``first_row``, and the header line comes before
    row 1 only, so the texts written for consecutive ranges of rows join
    into the text of the whole file.
    """
    codes = np.asarray(labels).astype(np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    min_rd = np.asarray(min_rd, dtype=np.float64)
    G = scores.shape[1]
    header = ["row", "predicted", "min_rd"] + [f"score_{g}" for g in range(1, G + 1)]
    shown = codes if label_names is None else np.array(["0", *map(_csv_cell, label_names)], object)[codes]
    columns = [np.arange(first_row, first_row + codes.shape[0]), shown, min_rd, *scores.T]
    head = ",".join(header) if first_row == 1 else None
    write_text(target, csv_text(head, "%d,%s" + ",%.9g" * (G + 1), columns))

"""Tests for CSV reading, writing, and label encoding."""
import csv
import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from robustqda import data_io
from robustqda.data_io import (
    encode_labels,
    encode_with_names,
    read_dataset,
    write_dataset,
    write_predictions_csv,
)
from robustqda.errors import DataError
from robustqda.fileio import CHUNK_ROWS


SAMPLE = "a,b,label\n1.5,2.0,1\n-0.25,3.5,2\n0.0,1e-3,1\n"


class TestReadDataset:
    def test_basic_parse(self):
        ds = read_dataset(io.StringIO(SAMPLE), label_col="label")
        assert ds.feature_names == ("a", "b")
        assert ds.labels_raw == ("1", "2", "1")
        assert np.array_equal(ds.X, [[1.5, 2.0], [-0.25, 3.5], [0.0, 0.001]])
        assert (ds.n, ds.p) == (3, 2)

    def test_label_column_position_is_free(self):
        text = "label,a,b\n1,1.5,2.0\n2,-0.25,3.5\n"
        ds = read_dataset(io.StringIO(text), label_col="label")
        assert ds.feature_names == ("a", "b")
        assert np.array_equal(ds.X, [[1.5, 2.0], [-0.25, 3.5]])

    def test_without_label_column(self):
        ds = read_dataset(io.StringIO("a,b\n1,2\n3,4\n"))
        assert ds.labels_raw is None
        assert ds.X.shape == (2, 2)

    def test_path_source(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(SAMPLE)
        ds = read_dataset(path, label_col="label")
        assert ds.n == 3

    def test_missing_label_column_lists_header(self):
        with pytest.raises(DataError, match="header: a, b, label"):
            read_dataset(io.StringIO(SAMPLE), label_col="y")

    def test_duplicate_columns(self):
        with pytest.raises(DataError, match="duplicate"):
            read_dataset(io.StringIO("a,a\n1,2\n"))

    def test_ragged_row(self):
        with pytest.raises(DataError, match="row 2"):
            read_dataset(io.StringIO("a,b\n1,2\n3\n"))

    def test_non_numeric_cell_cites_row_and_column(self):
        text = "a,b\n1,2\n3,oops\n"
        with pytest.raises(DataError, match="row 2, column 'b'"):
            read_dataset(io.StringIO(text))

    def test_nan_cell_rejected(self):
        text = "a,b\n1,2\n3,nan\n"
        with pytest.raises(DataError, match="not finite"):
            read_dataset(io.StringIO(text))

    def test_empty_file(self):
        with pytest.raises(DataError, match="header"):
            read_dataset(io.StringIO(""))

    def test_header_only(self):
        with pytest.raises(DataError, match="no data rows"):
            read_dataset(io.StringIO("a,b\n"))

    def test_label_only_header(self):
        with pytest.raises(DataError, match="no feature columns"):
            read_dataset(io.StringIO("label\n1\n"), label_col="label")

    def test_bare_carriage_return_outside_quotes_ends_a_row(self):
        assert read_dataset(io.StringIO("a,b\n1,2\r3,4\n")).X.tolist() == [[1, 2], [3, 4]]
        with pytest.raises(DataError, match="^row 3: expected 2 cells, got 1$"):
            read_dataset(io.StringIO('a,b\n1,2\n"3",4\r5\n'))

    def test_csv_error_in_the_header_cites_the_header_row(self):
        with pytest.raises(DataError, match=r"^header row: field larger than field limit \(131072\)$"):
            read_dataset(io.StringIO('"' + "a" * 200_000 + '",b\n1,2\n'))

    def test_byte_order_mark_of_a_path_is_not_part_of_the_first_name(self, tmp_path):
        path = tmp_path / "excel.csv"
        path.write_bytes(b"\xef\xbb\xbfx1,x2,label\n1,2,3\n4,5,6\n")
        assert read_dataset(path, label_col="label").feature_names == ("x1", "x2")
        ds = read_dataset(path, label_col="x1")
        assert ds.feature_names == ("x2", "label")
        assert ds.labels_raw == ("1", "4")


class TestEncodeLabels:
    def test_integers_pass_through(self):
        y, names = encode_labels(("3", "1", "2", "1"))
        assert names is None
        assert np.array_equal(y, [3, 1, 2, 1])

    def test_strings_sorted_to_contiguous(self):
        y, names = encode_labels(("walk", "run", "walk", "jump"))
        assert names == ("jump", "run", "walk")
        assert np.array_equal(y, [3, 2, 3, 1])

    def test_encode_with_names_round_trip(self):
        raw = ("b", "a", "b", "c")
        y, names = encode_labels(raw)
        again = encode_with_names(raw, names)
        assert np.array_equal(y, again)

    def test_outlier_name_rejected(self):
        with pytest.raises(DataError, match="no class may be named '0'"):
            encode_labels(("a", "0", "a"))

    def test_encode_with_names_unknown_label(self):
        with pytest.raises(DataError, match="'d' is not one of the trained classes"):
            encode_with_names(("a", "d"), ("a", "b", "c"))


# Class names that a CSV cell must quote, and one that it need not.
QUOTED_NAMES = ("a,b", 'say "hi"', "two\nlines", "plain")


class TestWriteDataset:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((50, 3)) * np.array([1e-8, 1.0, 1e12])
        y = rng.integers(1, 4, 50)
        path = tmp_path / "rt.csv"
        write_dataset(path, X, y=y)
        ds = read_dataset(path, label_col="label")
        assert np.array_equal(ds.X, X)
        back, names = encode_labels(ds.labels_raw)
        assert names is None
        assert np.array_equal(back, y)

    def test_default_feature_names(self):
        buf = io.StringIO()
        write_dataset(buf, np.ones((1, 3)))
        assert buf.getvalue().splitlines()[0] == "x1,x2,x3"

    def test_name_count_checked(self):
        with pytest.raises(DataError):
            write_dataset(io.StringIO(), np.ones((1, 3)), feature_names=("a",))

    def test_names_that_need_quotes_round_trip(self, tmp_path):
        X = np.random.default_rng(1).standard_normal((8, 2))
        y = np.array(QUOTED_NAMES * 2, dtype=object)
        path = tmp_path / "quoted.csv"
        write_dataset(path, X, feature_names=("x,1", 'x"2'), y=y, label_col="class, given")
        ds = read_dataset(path, label_col="class, given")
        assert ds.feature_names == ("x,1", 'x"2')
        assert ds.labels_raw == tuple(y)
        assert np.array_equal(ds.X, X)

    def test_carriage_return_in_a_quoted_label_round_trips(self, tmp_path):
        X = np.random.default_rng(2).standard_normal((3, 2))
        path = tmp_path / "cr.csv"
        write_dataset(path, X, y=np.array(["a\rb", "c", "a\rb"], dtype=object))
        assert path.read_bytes().endswith(b',"a\rb"\n')
        ds = read_dataset(path, label_col="label")
        assert ds.labels_raw == ("a\rb", "c", "a\rb")
        assert np.array_equal(ds.X, X)
        with open(path, encoding="utf-8", newline="") as fh:
            opened = read_dataset(fh, label_col="label")
        assert opened.labels_raw == ds.labels_raw
        assert opened.X.tobytes() == ds.X.tobytes()


class TestWritePredictions:
    def test_format_and_names(self):
        buf = io.StringIO()
        labels = np.array([2, 0, 1])
        scores = np.array([[1.0, 2.0], [0.5, 0.25], [3.0, -1.0]])
        min_rd = np.array([0.1, 9.0, 0.2])
        write_predictions_csv(buf, labels, scores, min_rd, label_names=("cat", "dog"))
        lines = buf.getvalue().splitlines()
        assert lines[0] == "row,predicted,min_rd,score_1,score_2"
        assert lines[1].split(",")[:2] == ["1", "dog"]
        assert lines[2].split(",")[:2] == ["2", "0"]  # outlier stays numeric
        assert lines[3].split(",")[:2] == ["3", "cat"]

    def test_names_are_written_as_csv_cells(self):
        buf = io.StringIO()
        labels = np.array([1, 2, 3, 4, 0])
        write_predictions_csv(buf, labels, np.zeros((5, 4)), np.ones(5), label_names=QUOTED_NAMES)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert [len(row) for row in rows] == [7] * 6
        assert [row[1] for row in rows[1:]] == [*QUOTED_NAMES, "0"]
        for line in ('1,"a,b",1,', '2,"say ""hi""",1,', '3,"two\nlines",1,', "4,plain,1,"):
            assert "\n" + line in buf.getvalue()

    def test_numeric_labels_without_table(self):
        buf = io.StringIO()
        write_predictions_csv(buf, [1], np.array([[0.5, 1.5]]), [0.3])
        assert buf.getvalue().splitlines()[1].startswith("1,1,0.3,")


# ---------------------------------------------------------------------------
# Reference implementations: the cell-by-cell reader and writers that the
# numpy paths replaced.  The tests below require identical results from
# both, value for value and byte for byte, including error messages.


def reference_read(source, label_col=None):
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, encoding="utf-8-sig", newline="") as fh:
            text = fh.read()
    rows = []
    try:
        rows.extend(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        raise DataError(f"row {len(rows)}: {exc}" if rows else f"header row: {exc}") from None
    if not rows:
        raise DataError("empty CSV: expected a header row")
    header = [name.strip() for name in rows[0]]
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
    data = np.empty((len(rows) - 1, len(feature_idx)))
    labels = [] if label_idx is not None else None
    for i, row in enumerate(rows[1:], start=1):
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
    return data, names, None if labels is None else tuple(labels)


def reference_write_dataset(X, feature_names=None, y=None, label_col="label"):
    X = np.asarray(X, dtype=np.float64)
    n, p = X.shape
    if feature_names is None:
        feature_names = tuple(f"x{j + 1}" for j in range(p))
    header = list(feature_names)
    if y is not None:
        y = np.asarray(y)
        header.append(label_col)
    lines = [",".join(header)]
    for i in range(n):
        cells = [repr(float(v)) for v in X[i]]
        if y is not None:
            cells.append(str(y[i]))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def reference_write_predictions(labels, scores, min_rd, label_names=None):
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    min_rd = np.asarray(min_rd, dtype=np.float64)
    G = scores.shape[1]
    header = ["row", "predicted", "min_rd"] + [f"score_{g}" for g in range(1, G + 1)]
    lines = [",".join(header)]
    for i in range(labels.shape[0]):
        lbl = int(labels[i])
        if label_names is not None and lbl != 0:
            shown = label_names[lbl - 1]
        else:
            shown = str(lbl)
        cells = [str(i + 1), shown, f"{min_rd[i]:.9g}"]
        cells += [f"{scores[i, g]:.9g}" for g in range(G)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def read_both(text, label_col=None):
    """Outcome of read_dataset and of the reference on ``text``, each
    ("ok", shape, X bytes, names, labels) or ("error", type, message)."""
    outcomes = []
    for reader in (read_dataset, reference_read):
        try:
            got = reader(io.StringIO(text), label_col=label_col)
        except DataError as exc:
            outcomes.append(("error", type(exc), str(exc)))
            continue
        if reader is read_dataset:
            got = (got.X, got.feature_names, got.labels_raw)
        X, names, labels = got
        assert X.dtype == np.float64 and X.flags.c_contiguous
        outcomes.append(("ok", X.shape, X.tobytes(), names, labels))
    return outcomes


def per_cell_path_unused():
    return mock.patch.object(data_io, "_parse_cells", side_effect=AssertionError("per-cell path ran"))


def scaled(mantissa, exponent, sign):
    return sign * mantissa * 10.0**exponent


# Finite floats spanning 1e-300..1e300 in magnitude, plus both zeros.
FINITE = st.one_of(
    st.builds(scaled, st.floats(1.0, 9.999999), st.integers(-300, 299), st.sampled_from([1.0, -1.0])),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308]),
    st.floats(-1e6, 1e6),
)
FORMATS = (repr, "{:.17g}".format, "{:.6e}".format, "{:g}".format, "{:+.3E}".format)
PAD = st.sampled_from(["", " ", "\t", " \t ", "  "])


@st.composite
def clean_csv(draw):
    """A quote-free CSV that the dialect accepts, and its label column."""
    n = draw(st.integers(1, 12))
    p = draw(st.integers(1, 4))
    label_at = draw(st.one_of(st.none(), st.integers(0, p)))
    string_labels = draw(st.booleans())
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    header = [f"c{j}" for j in range(p)]
    if label_at is not None:
        header.insert(label_at, "label")
    lines = [",".join(header)]
    for _ in range(n):
        cells = [
            draw(PAD) + draw(st.sampled_from(FORMATS))(draw(FINITE)) + draw(PAD) for _ in range(p)
        ]
        if label_at is not None:
            labels = ["walk", "run", "a b"] if string_labels else ["1", "2", "3"]
            cells.insert(label_at, draw(PAD) + draw(st.sampled_from(labels)) + draw(PAD))
        lines.append(",".join(cells))
    text = newline.join(lines) + (newline if draw(st.booleans()) else "")
    return text, None if label_at is None else "label"


class TestReaderMatchesPerCellReference:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(clean_csv())
    def test_clean_input_takes_numpy_path_with_identical_result(self, case):
        text, label_col = case
        with per_cell_path_unused():
            new, ref = read_both(text, label_col)
        assert new == ref
        assert new[0] == "ok"

    @settings(max_examples=400, deadline=None)
    @given(
        st.text(alphabet="0123456789.,-+eE_ \t\r\n\"naifx", max_size=40),
        st.sampled_from([None, "b"]),
    )
    def test_arbitrary_text_gives_identical_outcome(self, body, label_col):
        new, ref = read_both("a,b,c\n" + body, label_col)
        assert new == ref

    @pytest.mark.parametrize(
        "body",
        [
            "1,2\n\n3,4\n",  # blank line mid-file
            "1,2\n3,4\n\n",  # trailing blank line
            "1,2\r\n\r\n3,4\r\n",  # blank CRLF line
            "1,nan\n",
            "inf,2\n",
            "1,-inf\n",
            "1e400,2\n",
            "1,2\n3\n",  # ragged
            "1,2,\n",  # trailing comma
            "1,2\n3,oops\n",
            "1,\n",  # empty cell
            "\n",
            "  \n",
            "\r0",  # a bare carriage return ends a blank row
        ],
    )
    def test_declined_input_raises_identical_error(self, body):
        new, ref = read_both("a,b\n" + body)
        assert new == ref
        assert new[:2] == ("error", DataError)

    @pytest.mark.parametrize(
        "text,label_col",
        [
            ('a,b\n"1.5",2\n', None),  # quoted cell
            ('"a",b,label\n1,2,"x,y"\n', "label"),  # quoted header and label
            ("a,b\n1_0,2\n", None),  # underscore digit grouping
            ("a,b\n١,2\n", None),  # non-ASCII digit
            ("a,label,b\n1,x,2\n3,y,4,5\n", "label"),  # ragged around the label
            ("a,label\n1,x\n2\n", "label"),
            ("a,b\n1,2\n3,4\r5,6\n", None),  # a bare carriage return ends a row
        ],
    )
    def test_declined_input_parses_or_fails_as_before(self, text, label_col):
        new, ref = read_both(text, label_col)
        assert new == ref

    @pytest.mark.parametrize(
        "text,label_col",
        [
            ("a,label,b\n1.5,x,-0.0\n2e-300,y,3\n", "label"),
            ('"a",b,label\n1,2,"x,y"\n3,4,"z"\n', "label"),
            ('a,b\n"1.5",2\n3,"4"', None),
        ],
    )
    def test_path_sources_with_lf_crlf_and_cr_line_ends_read_alike(self, tmp_path, text, label_col):
        """Every copy reads as the reference reads it, which hands the csv
        module the text as written, and a path, an open file and a
        StringIO of the same copy read alike."""
        reads = []
        for name, newline in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
            path = tmp_path / f"{name}.csv"
            path.write_bytes(text.replace("\n", newline).encode())
            ref = reference_read(path, label_col=label_col)
            with open(path, encoding="utf-8", newline="") as fh:
                sources = [path, fh, io.StringIO(text.replace("\n", newline))]
                for source in sources:
                    ds = read_dataset(source, label_col=label_col)
                    assert ds.X.tobytes() == ref[0].tobytes()
                    assert (ds.feature_names, ds.labels_raw) == ref[1:]
                    reads.append((ds.X.tobytes(), ds.feature_names, ds.labels_raw))
        assert len(reads) == 9 and all(read == reads[0] for read in reads)


def sink():
    """A write-only text target that keeps nothing but the text."""
    out = []
    return mock.Mock(write=out.append), out


class TestWritersMatchPerCellReference:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 40),
        st.integers(1, 4),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_write_dataset_bytes(self, n, p, with_y, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, p)) * 10.0 ** rng.integers(-300, 300, (n, p))
        X.flat[:: 3] = rng.choice([0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan], X.flat[::3].shape)
        y = rng.integers(1, 4, n) if with_y else None
        buf = io.StringIO()
        write_dataset(buf, X, y=y)
        assert buf.getvalue() == reference_write_dataset(X, y=y)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 40), st.integers(1, 4), st.booleans(), st.integers(0, 2**32 - 1))
    def test_write_predictions_bytes(self, n, G, named, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, G + 1, n)  # 0 is the outlier class
        scores = rng.standard_normal((n, G)) * 10.0 ** rng.integers(-300, 300, (n, G))
        scores.flat[:: 4] = rng.choice([0.0, -0.0, 5e-324, -np.inf, np.nan], scores.flat[::4].shape)
        min_rd = np.abs(rng.standard_normal(n)) * 10.0 ** rng.integers(-20, 20, n)
        names = tuple(f"class {g}" for g in range(1, G + 1)) if named else None
        buf = io.StringIO()
        write_predictions_csv(buf, labels, scores, min_rd, label_names=names)
        assert buf.getvalue() == reference_write_predictions(labels, scores, min_rd, names)

    def test_chunk_boundaries(self, tmp_path):
        n = 2 * CHUNK_ROWS + 3
        rng = np.random.default_rng(5)
        X = rng.standard_normal((n, 3))
        y = rng.integers(1, 4, n)
        write_dataset(tmp_path / "d.csv", X, feature_names=("u", "v", "w"), y=y, label_col="cls")
        expected = reference_write_dataset(X, ("u", "v", "w"), y, "cls")
        assert (tmp_path / "d.csv").read_text(encoding="utf-8") == expected
        labels = np.where(rng.random(n) < 0.1, 0, y)
        scores = rng.standard_normal((n, 3))
        min_rd = rng.random(n)
        path = tmp_path / "p.csv"
        names = ("x", "y", "z")
        write_predictions_csv(path, labels, scores, min_rd, names)
        expected = reference_write_predictions(labels, scores, min_rd, names)
        assert path.read_text(encoding="utf-8") == expected

    # Peak traced allocation during a write, over the size of the text it
    # produces.  The text is built once from per-chunk parts, so about two
    # copies of it plus one chunk's Python values are alive at the peak.
    PEAK_OVER_TEXT = 2.6

    @pytest.mark.parametrize("writer", ["dataset", "predictions"])
    def test_peak_memory_bounded_by_output(self, writer):
        n = 50_000
        rng = np.random.default_rng(9)
        target, out = sink()
        if writer == "dataset":
            X = rng.standard_normal((n, 5))
            y = rng.integers(1, 4, n)
            call = lambda: write_dataset(target, X, y=y)
        else:
            labels = rng.integers(0, 4, n)
            scores = rng.standard_normal((n, 3))
            min_rd = rng.random(n)
            call = lambda: write_predictions_csv(target, labels, scores, min_rd, ("a", "b", "c"))
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = len(out[0])
        assert peak < self.PEAK_OVER_TEXT * size, (peak, size)


class TestRowRanges:
    """``read_rows`` keeps the body as text; ``split`` cuts it into ranges
    of whole lines that parse to the rows of the whole file."""

    @staticmethod
    def text(n: int, seed: int, newline: str = "\n") -> str:
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-3, 6, (n, 1))
        lines = ["a,b,c"] + [",".join(map(repr, row)) for row in X.tolist()]
        return newline.join(lines) + newline

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_ranges_are_whole_lines_numbered_from_the_file(self, newline):
        for n, seed in ((1, 0), (2, 1), (13, 2), (100, 3)):
            text = self.text(n, seed, newline)
            rows = data_io.read_rows(io.StringIO(text))
            whole = read_dataset(io.StringIO(text)).X
            assert rows.line_count == n
            for parts in (1, 2, 3, 7, n, n + 5):
                ranges = rows.split(parts)
                assert 1 <= len(ranges) <= max(1, min(parts, n))
                assert "".join(rows.body[r.start:r.stop] for r in ranges) == rows.body
                assert all(rows.body[r.stop - 1] == "\n" for r in ranges)
                starts = [1 + rows.body.count("\n", 0, r.start) for r in ranges]
                assert [r.first_row for r in ranges] == starts
                X = np.vstack([rows.parse(r)[0] for r in ranges])
                assert X.tobytes() == whole.tobytes()

    def test_error_cites_the_file_row_of_a_later_range(self):
        text = self.text(20, 4).splitlines(keepends=True)
        text[15] = "1.0,oops,2.0\n"  # data row 15
        rows = data_io.read_rows(io.StringIO("".join(text)))
        first, second = rows.split(2)
        assert second.first_row <= 15
        with pytest.raises(DataError, match="^row 15, column 'b': 'oops' is not a number$"):
            rows.parse(second)

    def test_quoted_body_stays_one_range(self):
        text = 'a,"b\nc"\n1,2\n3,4\n"5",6\n'
        rows = data_io.read_rows(io.StringIO(text))
        assert rows.feature_names == ("a", "b\nc")
        (whole,) = rows.split(4)
        assert rows.parse(whole)[0].tolist() == [[1, 2], [3, 4], [5, 6]]

    @classmethod
    def quoted_header_text(cls, n: int, seed: int) -> str:
        """``text(n, seed)`` with every header cell quoted, as R's
        ``write.csv`` writes a numeric frame."""
        return '"a","b","c"' + cls.text(n, seed)[len("a,b,c"):]

    def test_quoted_header_alone_leaves_the_body_quote_free(self):
        rows = data_io.read_rows(io.StringIO(self.quoted_header_text(30, 6)))
        assert rows.feature_names == ("a", "b", "c")
        assert rows.quoted is False
        assert len(rows.split(3)) == 3

    def test_quoted_header_body_takes_the_numpy_path(self):
        plain = read_dataset(io.StringIO(self.text(200, 7)))
        with per_cell_path_unused():
            quoted = read_dataset(io.StringIO(self.quoted_header_text(200, 7)))
        assert quoted.X.tobytes() == plain.X.tobytes()
        assert quoted.feature_names == plain.feature_names

    def test_quoted_header_read_holds_no_more_than_two_copies(self, tmp_path):
        """The header is read from a prefix, so the text is not copied
        whole into a ``StringIO``: the text and its body are alive at the
        peak."""
        path = tmp_path / "quoted_header.csv"
        path.write_text(self.quoted_header_text(20_000, 8), encoding="utf-8")
        tracemalloc.start()
        try:
            data_io.read_rows(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * path.stat().st_size, (peak, path.stat().st_size)

    def test_final_line_without_a_break(self):
        rows = data_io.read_rows(io.StringIO("a\n1\n2\n3"))
        assert rows.line_count == 3
        ranges = rows.split(3)
        assert [r.first_row for r in ranges] == [1, 2, 3]
        assert np.vstack([rows.parse(r)[0] for r in ranges]).ravel().tolist() == [1, 2, 3]

    def test_predictions_of_ranges_join_into_the_whole_file(self):
        rng = np.random.default_rng(5)
        n = 25
        labels = rng.integers(0, 3, n)
        scores = rng.standard_normal((n, 2))
        min_rd = rng.random(n)
        whole = io.StringIO()
        write_predictions_csv(whole, labels, scores, min_rd, ("x", "y"))
        joined = ""
        for lo, hi in ((0, 1), (1, 8), (8, 25)):
            part = io.StringIO()
            write_predictions_csv(part, labels[lo:hi], scores[lo:hi], min_rd[lo:hi], ("x", "y"),
                                  first_row=lo + 1)
            joined += part.getvalue()
        assert joined == whole.getvalue()

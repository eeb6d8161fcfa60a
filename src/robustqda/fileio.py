"""Small file helpers: the one decoder of input files, and the writers
shared by the CLI and the report writers."""
from __future__ import annotations

import os
import tempfile
from pathlib import Path

from .errors import DataError


def read_text(source, what: str) -> str:
    """``source.read()`` of an open file, which its caller decoded, or
    the file at a path as UTF-8 without a leading byte-order mark and
    with line ends as written; DataError names ``what`` if it is not."""
    if hasattr(source, "read"):
        return source.read()
    try:
        with open(source, encoding="utf-8-sig", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{what} is not UTF-8 text: {exc}") from None


def write_text_atomic(path, text: str) -> Path:
    """Write ``text`` to ``path`` via a temp file and rename.

    Readers never observe a half-written file; on failure the target is
    left untouched.  The file gets the mode ``open(path, "w")`` would
    leave: an existing file's own, else ``0o666`` less the umask.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.chmod(tmp_name, _mode_for(path))
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def _mode_for(path: Path) -> int:
    """The permission bits ``open(path, "w")`` leaves on ``path``."""
    try:
        return os.stat(path).st_mode & 0o777
    except FileNotFoundError:
        # Python has no call that only reads the umask: set it and put it back.
        umask = os.umask(0o077)
        os.umask(umask)
        return 0o666 & ~umask


def write_text(target, text: str) -> None:
    """Write ``text`` to an open text file, or atomically to a path."""
    if hasattr(target, "write"):
        target.write(text)
    else:
        write_text_atomic(target, text)


# Rows per ``%`` call in csv_text: large enough to amortise the call,
# small enough that the per-chunk Python values stay a few megabytes.
CHUNK_ROWS = 8192


def csv_text(header: str | None, row_format: str, columns) -> str:
    """CSV text: the ``header`` line (none if it is None), then
    ``row_format % row`` per row.

    ``columns`` are equal-length 1-D numpy arrays, one per ``%`` field of
    ``row_format``.  Rows are formatted ``CHUNK_ROWS`` at a time, each
    chunk by a single ``%`` over ``.tolist()`` values, so ``%r`` gives
    ``repr(float(x))`` and ``%.9g`` gives ``f"{x:.9g}"``, and the temporary
    Python values scale with the chunk, not with the row count.
    """
    width = len(columns)
    n = len(columns[0])
    line = row_format + "\n"
    parts = [] if header is None else [header + "\n"]
    for start in range(0, n, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, n)
        values = [None] * ((stop - start) * width)
        for j, column in enumerate(columns):
            values[j::width] = column[start:stop].tolist()
        parts.append((line * (stop - start)) % tuple(values))
    return "".join(parts)

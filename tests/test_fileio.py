"""``fileio.write_text_atomic``: the file it leaves has the mode a plain
``open(path, "w")`` would give it."""
import os

import numpy as np
import pytest

from robustqda.cli import main
from robustqda.data_io import write_dataset
from robustqda.fileio import write_text_atomic


@pytest.fixture(params=[0o022, 0o027], ids=["umask022", "umask027"])
def umask(request):
    old = os.umask(request.param)
    try:
        yield request.param
    finally:
        os.umask(old)


def _mode(path) -> int:
    return os.stat(path).st_mode & 0o777


def test_new_file_gets_the_mode_open_gives(tmp_path, umask):
    with open(tmp_path / "plain.txt", "w") as fh:
        fh.write("a\n")
    written = write_text_atomic(tmp_path / "atomic.txt", "a\n")
    assert _mode(written) == _mode(tmp_path / "plain.txt") == 0o666 & ~umask
    assert sorted(os.listdir(tmp_path)) == ["atomic.txt", "plain.txt"]


def test_rewritten_file_keeps_its_mode(tmp_path, umask):
    path = tmp_path / "report.txt"
    path.write_text("old\n")
    os.chmod(path, 0o644)
    write_text_atomic(path, "new\n")
    assert _mode(path) == 0o644
    assert path.read_text() == "new\n"


def test_cli_output_gets_the_mode_open_gives(tmp_path, umask):
    rng = np.random.default_rng(0)
    write_dataset(tmp_path / "class.csv", rng.standard_normal((200, 2)))
    out = tmp_path / "mcd.txt"
    assert main(["mcd", "--data", str(tmp_path / "class.csv"), "--blocks", "1", "--out", str(out)]) == 0
    assert _mode(out) == 0o666 & ~umask

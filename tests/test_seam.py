"""Tests reach the MCD fit through its seam: ``mcd._fit_stack``,
``mcd._fit_blocks`` and ``fit_mcd``, with a step cap set by
``monkeypatch``.  No test names the private steps or the caps' old
keywords, so that rewriting the steps needs no test edit."""
import re
from pathlib import Path

PRIVATE = re.compile(r"mcd\._start|mcd\._concentrate|mcd\._loc_scat|max_csteps|max_sweeps")


def test_no_test_names_the_fits_private_steps_or_caps():
    here = Path(__file__).resolve()
    hits = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(here.parent.rglob("*"))
        if path.is_file() and path != here and path.suffix != ".pyc"
        for number, line in enumerate(path.read_text(errors="replace").splitlines(), start=1)
        if PRIVATE.search(line)
    ]
    assert hits == []

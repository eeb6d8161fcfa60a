"""Tests reach the MCD fit through its seam: ``mcd._fit_stack``,
``mcd._fit_blocks`` and ``fit_mcd``, with a step cap set by
``monkeypatch``.  No test names the private steps or the caps' old
keywords, so that rewriting the steps needs no test edit.  The outlier
class and the trimmed-normal factor are each written in one place."""
import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "robustqda"
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


def test_outlier_class_and_trimmed_normal_factor_are_written_once():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    trees = {name: ast.parse(text) for name, text in sources.items()}

    def count(name, predicate):
        return sum(1 for node in ast.walk(trees[name]) if predicate(node))

    def calls(name, function):
        return count(name, lambda n: isinstance(n, ast.Call) and getattr(n.func, "id", None) == function)

    message = "the outlier class's label"
    assert [name for name, text in sources.items() for _ in range(text.count(message))] == ["qda"]
    assert {name for name in sources if calls(name, "chi2_quantile") and calls(name, "sqrt")} <= {"qda"}
    assert count("model_io", lambda n: isinstance(n, ast.ImportFrom)
                 and "chi2_quantile" in [alias.name for alias in n.names]) == 0
    assert calls("mcd", "chi2_cdf") == 1
    assert [line.strip() for line in sources["lbplot"].splitlines()
            if "outlier_cutoff" in line] == ["rd_cutoff=float(model.outlier_cutoff),"]

"""``tools/corpus.py compare``: every file that differs, or exists on one
side only, is named, and any of them makes the exit code 1."""
import importlib.util
from pathlib import Path


def _corpus_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "corpus.py"
    spec = importlib.util.spec_from_file_location("corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_names_every_file_that_does_not_match(tmp_path, capsys):
    corpus = _corpus_tool()
    a, b = tmp_path / "a", tmp_path / "b"
    for root, x in ((a, 1), (b, 2)):
        (root / "model").mkdir(parents=True)
        (root / "model" / "same.json").write_text("{}\n")
        (root / "model" / "fit.json").write_text(f'{{"x": {x}}}\n')
        (root / corpus.MANIFEST).write_text(f"manifest {x}\n")  # lists the files, is not one of them
    (a / "only_a.txt").write_text("a\n")
    (b / "mcd").mkdir()
    (b / "mcd" / "only_b.txt").write_text("b\n")
    assert corpus.compare(a, b) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: model/fit.json",
        f"only in {a}: only_a.txt",
        f"only in {b}: mcd/only_b.txt",
        f"1 identical, 1 differ, 1 only in {a}, 1 only in {b}",
    ]
    assert corpus.compare(a, a) == 0
    assert capsys.readouterr().out.splitlines() == [f"3 identical, 0 differ, 0 only in {a}, 0 only in {a}"]

"""``tools/corpus.py``: ``compare`` names every file that differs, or
exists on one side only, and any of them makes the exit code 1; ``check``
names every file that breaks one of the corpus's own invariants."""
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


def _reports(root, ties_shuffled_7=None, class_20800_auto=None, class_bom_auto=None):
    """A corpus's checked reports and models, holding the lines and bytes
    ``check`` wants unless a report's text is given."""
    ties = "method = blockwise\nblock_sizes = 1430 1430 1430 1430 1429 1429 1429\n"
    (root / "mcd").mkdir(parents=True)
    (root / "mcd" / "ties_7.txt").write_text(ties)
    (root / "mcd" / "ties_shuffled_7.txt").write_text(ties_shuffled_7 or ties)
    (root / "mcd" / "class_20800_auto.txt").write_text(
        class_20800_auto or "method = blockwise\nblock_sizes = 5200 5200 5200 5200\n")
    report = "features = x1,x2,x3\n"
    for name in ("class", "class_cr", "class_crlf", "class_quoted_header"):
        (root / "mcd" / f"{name}_auto.txt").write_text(report)
    (root / "mcd" / "class_bom_auto.txt").write_text(class_bom_auto or report)
    (root / "model").mkdir()
    for name in ("quoted_robust", "quoted_cr_robust"):
        (root / "model" / f"{name}.json").write_text("{}\n")
    return root


def test_check_passes_a_corpus_that_keeps_its_invariants(tmp_path):
    assert _corpus_tool().check(_reports(tmp_path)) == []


def test_check_names_the_file_that_breaks_an_invariant(tmp_path):
    corpus = _corpus_tool()
    shuffled = _reports(tmp_path / "a", ties_shuffled_7="block_sizes = 1430 1430 1430 1430 1429 1429 1429\n")
    assert corpus.check(shuffled) == ["mcd/ties_7.txt and mcd/ties_shuffled_7.txt differ"]
    # A block_sizes line must be a whole line, not a prefix of one.
    blocks = _reports(tmp_path / "b", class_20800_auto="block_sizes = 5200 5200 5200 5200 5200\n")
    assert corpus.check(blocks) == [
        "mcd/class_20800_auto.txt has no line 'block_sizes = 5200 5200 5200 5200'"]
    marked = _reports(tmp_path / "c", class_bom_auto="features = \ufeffx1,x2,x3\n")
    assert corpus.check(marked) == ["mcd/class_auto.txt and mcd/class_bom_auto.txt differ"]

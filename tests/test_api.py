"""The package's public surface: top-level names, module ``__all__`` lists,
and the README's quickstart.  ``test_cli.py``'s start-up tests check that
no command loads SciPy."""
import importlib
import pkgutil
import re
from pathlib import Path

import robustqda


def test_top_level_is_the_documented_api():
    assert set(robustqda.__all__) == {"blockwise_mcd", "fit_qda", "classify_rows", "lb_points"}
    for name in robustqda.__all__:
        assert callable(getattr(robustqda, name))
    assert isinstance(robustqda.__version__, str)


def test_every_module_all_resolves():
    for info in pkgutil.iter_modules(robustqda.__path__):
        module = importlib.import_module(f"robustqda.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"robustqda.{info.name}.{name}"


def test_readme_quickstart_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert "rows flagged as overall outliers" in capsys.readouterr().out

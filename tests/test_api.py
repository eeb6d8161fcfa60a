"""The package's public surface: top-level names, module ``__all__`` lists,
and what importing the command-line module pulls in."""
import importlib
import pkgutil
import subprocess
import sys

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


def test_cli_import_leaves_scipy_stats_out():
    code = "import sys, robustqda.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"

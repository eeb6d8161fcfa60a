"""The package's public surface: top-level names, module ``__all__`` lists,
and what importing the command-line module pulls in."""
import importlib
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

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


def _scipy_modules_after(code: str) -> set:
    """SciPy modules loaded by a fresh interpreter that runs ``code``."""
    script = code + "\nimport sys\nprint(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    return set(out.stdout.split())


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    from robustqda.cli import main
    from robustqda.data_io import write_dataset

    root = tmp_path_factory.mktemp("imports")
    rng = np.random.default_rng(5)
    X = np.vstack([rng.standard_normal((150, 2)), rng.standard_normal((150, 2)) + 6.0])
    write_dataset(root / "train.csv", X, y=np.repeat([1, 2], 150))
    write_dataset(root / "features.csv", X)
    args = ["train", "--data", str(root / "train.csv"), "--label-col", "label", "--blocks", "1"]
    assert main(args + ["--out", str(root / "model.json")]) == 0
    return root


def test_cli_import_leaves_scipy_out():
    assert _scipy_modules_after("import robustqda.cli") == set()


def test_predict_and_lbplot_run_without_scipy(model_files):
    root = model_files
    predict = ["predict", "--model", str(root / "model.json"), "--data", str(root / "features.csv"),
               "--out", str(root / "pred.csv")]
    lbplot = ["lbplot", "--model", str(root / "model.json"), "--data", str(root / "train.csv"),
              "--label-col", "label", "--class", "1", "--csv", str(root / "lb.csv"),
              "--svg", str(root / "lb.svg")]
    code = f"from robustqda.cli import main\nassert main({predict!r}) == 0\nassert main({lbplot!r}) == 0"
    assert _scipy_modules_after(code) == set()
    assert all((root / name).stat().st_size > 0 for name in ("pred.csv", "lb.csv", "lb.svg"))


def test_fitting_commands_load_no_scipy(model_files):
    root = model_files
    train = ["train", "--data", str(root / "train.csv"), "--label-col", "label", "--blocks", "1",
             "--out", str(root / "model_again.json")]
    mcd = ["mcd", "--data", str(root / "features.csv"), "--blocks", "1", "--out", str(root / "mcd.txt")]
    simulate = ["simulate", "--scenario", "clean", "--scale", "0.002", "--reps", "1",
                "--out", str(root / "study")]
    code = "from robustqda.cli import main\n" + "".join(
        f"assert main({args!r}) == 0\n" for args in (train, mcd, simulate))
    assert _scipy_modules_after(code) == set()
    assert (root / "model_again.json").read_bytes() == (root / "model.json").read_bytes()
    assert (root / "mcd.txt").stat().st_size > 0
    assert (root / "study" / "report.txt").stat().st_size > 0

"""Robust quadratic discriminant analysis for contaminated data streams.

The package fits class-conditional Gaussians with a block-parallel
deterministic MCD estimator, classifies with quadratic discriminant
scores plus an explicit outlier class 0, and ships a label-bias
diagnostic plot and a contamination study harness.  See the ``robust-qda``
console script for the command-line surface.

The top level re-exports the four entry points the README documents;
everything else, the exception classes in :mod:`robustqda.errors`
included, is imported from its own module.

The modules that only some commands run are registered here but load
lazily: each one's body runs at the first read of one of its attributes,
so ``predict``, for one, never compiles the MCD estimator.  That first
read must happen on the main thread, since ``importlib.util.LazyLoader``
is not thread-safe on Python 3.10 and 3.11.
"""
import importlib
import importlib.util
import sys

__version__ = "0.1.0"

__all__ = ["blockwise_mcd", "classify_rows", "fit_qda", "lb_points"]

for _name in ("block_mcd", "lbplot", "mcd", "robust_scale", "sim"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)
    sys.modules[_spec.name] = globals()[_name] = _module
del _name, _spec, _module

# The module each re-exported name comes from.
_HOMES = {
    "blockwise_mcd": "block_mcd",
    "classify_rows": "qda",
    "fit_qda": "qda",
    "lb_points": "lbplot",
}


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)


def __dir__():
    return sorted([*globals(), *__all__])

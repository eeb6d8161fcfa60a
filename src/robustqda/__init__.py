"""Robust quadratic discriminant analysis for contaminated data streams.

The package fits class-conditional Gaussians with a block-parallel
deterministic MCD estimator, classifies with quadratic discriminant
scores plus an explicit outlier class 0, and ships a label-bias
diagnostic plot and a contamination study harness.  See the ``robust-qda``
console script for the command-line surface.

The top level re-exports the four entry points the README documents;
everything else, the exception classes in :mod:`robustqda.errors`
included, is imported from its own module.
"""
from .block_mcd import blockwise_mcd
from .lbplot import lb_points
from .qda import classify_rows, fit_qda

__version__ = "0.1.0"

__all__ = ["blockwise_mcd", "classify_rows", "fit_qda", "lb_points"]

"""Model persistence.

A trained model is stored as a single JSON document with an explicit
``format_version`` field.  All floats are written as shortest
round-trip decimals (17 significant digits at most), so a load
reconstructs every 64-bit value exactly and classification output is
bit-identical to the model that was saved.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .core import LocationScatter, check_block_count, check_fraction, check_seed, chi2_quantile
from .errors import DataError, DomainError
from .fileio import read_text, write_text_atomic
from .qda import ClassModel, QdaModel, _check_mode

__all__ = ["FORMAT_VERSION", "load_model", "model_from_json", "model_to_json", "save_model"]

FORMAT_VERSION = 1

# A stored cutoff must equal sqrt(chi2_quantile(p, outlier_quantile)), as
# fit_qda writes it.  Files written while that quantile came from SciPy
# differ from core.chi2_quantile by up to 8e-14 relative, so they still load.
_CUTOFF_RTOL = 1e-9


def model_to_json(model: QdaModel, label_names=None) -> str:
    """Serialize a model (and optional class-name table) to JSON text."""
    classes = []
    for g, cm in enumerate(model.classes, start=1):
        classes.append(
            {
                "label": g,
                "mu": [float(v) for v in cm.loc_scat.mu],
                "sigma": [[float(v) for v in row] for row in cm.loc_scat.sigma],
                "prior": cm.prior,
                "n_raw": cm.n_raw,
                "n_inlier": cm.n_inlier,
                "blocks": cm.blocks,
            }
        )
    doc = {
        "format_version": FORMAT_VERSION,
        "mode": model.mode,
        "p": model.p,
        "G": model.n_classes,
        "outlier_quantile": model.outlier_quantile,
        "outlier_cutoff": model.outlier_cutoff,
        "fit_config": {
            "h_frac": model.h_frac,
            "q": model.blocks_requested,
            "seed": model.seed,
        },
        "label_names": None if label_names is None else list(label_names),
        "classes": classes,
    }
    return json.dumps(doc, indent=2) + "\n"


def _require(doc: dict, key: str, kind, where: str = ""):
    """``doc[key]`` if present and of type ``kind``; ``where`` prefixes the
    key's name in the error, e.g. ``"fit_config."``."""
    if key not in doc:
        raise DataError(f"model file is missing key {where + key!r}")
    value = doc[key]
    # JSON true and false load as bools, which isinstance counts as ints.
    if isinstance(value, bool) or not isinstance(value, kind):
        raise DataError(f"model file key {where + key!r} has the wrong type")
    return value


def _checked(check, value, key: str):
    """``value`` after ``check(value)``; its ``DomainError`` becomes a
    ``DataError`` naming the key."""
    try:
        check(value)
    except DomainError as exc:
        raise DataError(f"model file key {key!r}: {exc}") from None
    return value


def _out_of_range(key: str, value) -> DataError:
    return DataError(f"model file key {key!r} is out of range: {value!r}")


def _numbers(doc: dict, key: str, where: str) -> np.ndarray:
    """``doc[key]``, a list (of equal-length lists) of numbers, as float64."""
    try:
        values = np.asarray(_require(doc, key, list, where))
        if values.dtype.kind in "iuf":
            return values.astype(np.float64)
    except ValueError:  # rows of unequal length
        pass
    raise DataError(f"model file key {where + key!r} must hold equal-length lists of numbers")


def model_from_json(text: str) -> tuple[QdaModel, tuple | None]:
    """Rebuild a model from JSON text; returns (model, label_names)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"model file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError("model file must contain a JSON object")
    version = _require(doc, "format_version", int)
    if version != FORMAT_VERSION:
        raise DataError(f"unsupported model format_version {version} (expected {FORMAT_VERSION})")
    mode = _require(doc, "mode", str)
    p = _require(doc, "p", int)
    G = _require(doc, "G", int)
    if p < 1 or G < 2:
        raise DataError(f"model file needs p >= 1 and G >= 2, got p = {p}, G = {G}")
    quantile = float(_require(doc, "outlier_quantile", (int, float)))
    _check_mode(mode)
    if not 0.0 < quantile < 1.0:
        raise DataError(f"outlier_quantile must lie in (0, 1), got {quantile!r}")
    cutoff = float(_require(doc, "outlier_cutoff", (int, float)))
    if not 0.0 < cutoff < math.inf:
        raise _out_of_range("outlier_cutoff", cutoff)
    expected = math.sqrt(chi2_quantile(p, quantile))
    if not math.isclose(cutoff, expected, rel_tol=_CUTOFF_RTOL):
        raise DataError(
            f"model file key 'outlier_cutoff' is {cutoff!r}, but outlier_quantile "
            f"{quantile!r} at p = {p} gives {expected!r}"
        )
    config = _require(doc, "fit_config", dict)
    h_frac = float(_require(config, "h_frac", (int, float), "fit_config."))
    _checked(check_fraction, h_frac, "fit_config.h_frac")
    q = _require(config, "q", str, "fit_config.")
    if q != "auto":
        try:
            check_block_count(float(q))
        except (ValueError, DomainError):
            raise _out_of_range("fit_config.q", q) from None
    seed = _checked(check_seed, _require(config, "seed", int, "fit_config."), "fit_config.seed")
    raw_classes = _require(doc, "classes", list)
    if len(raw_classes) != G:
        raise DataError(f"model file lists {len(raw_classes)} classes but G = {G}")
    names = doc.get("label_names")
    if names is not None:
        if not isinstance(names, list) or len(names) != G:
            raise DataError("label_names must list one name per class")
        names = tuple(str(v) for v in names)
        if len(set(names)) != G:
            raise DataError(f"model file key 'label_names' repeats a name: {list(names)!r}")
        if "0" in names:
            raise DataError("no class may be named '0', the outlier class's label")

    classes = []
    for g, entry in enumerate(raw_classes, start=1):
        if not isinstance(entry, dict):
            raise DataError(f"class {g}: entry must be an object")
        where = f"classes[{g - 1}]."
        mu = _numbers(entry, "mu", where)
        sigma = _numbers(entry, "sigma", where)
        if mu.shape != (p,) or sigma.shape != (p, p):
            raise DataError(f"class {g}: mu/sigma shapes do not match p = {p}")
        if _require(entry, "label", int, where) != g:
            raise DataError(f"class {g}: labels must be stored in order 1..G")
        prior = float(_require(entry, "prior", (int, float), where))
        if not 0.0 < prior <= 1.0:
            raise _out_of_range(where + "prior", prior)
        n_raw = _require(entry, "n_raw", int, where)
        n_inlier = _require(entry, "n_inlier", int, where)
        if not 0 <= n_inlier <= n_raw:
            raise _out_of_range(where + "n_inlier", n_inlier)
        classes.append(
            ClassModel(
                loc_scat=LocationScatter.from_sigma(mu, sigma),
                prior=prior,
                n_raw=n_raw,
                n_inlier=n_inlier,
                blocks=_checked(
                    check_block_count, _require(entry, "blocks", int, where), where + "blocks"
                ),
            )
        )
    model = QdaModel(
        classes=tuple(classes),
        mode=mode,
        outlier_quantile=quantile,
        outlier_cutoff=cutoff,
        h_frac=h_frac,
        blocks_requested=q,
        seed=seed,
    )
    return model, names


def save_model(path, model: QdaModel, label_names=None) -> Path:
    return write_text_atomic(path, model_to_json(model, label_names))


def load_model(path) -> tuple[QdaModel, tuple | None]:
    return model_from_json(read_text(path, "model file"))

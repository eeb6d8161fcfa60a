"""Model persistence.

A trained model is stored as a single JSON document with an explicit
``format_version`` field.  All floats are written as shortest
round-trip decimals (17 significant digits at most), so a load
reconstructs every 64-bit value exactly and classification output is
bit-identical to the model that was saved.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import LocationScatter
from .errors import DataError
from .fileio import write_text_atomic
from .qda import ClassModel, QdaModel

__all__ = ["FORMAT_VERSION", "load_model", "model_from_json", "model_to_json", "save_model"]

FORMAT_VERSION = 1


def model_to_json(model: QdaModel, label_names=None) -> str:
    """Serialize a model (and optional class-name table) to JSON text."""
    classes = []
    for cm in model.classes:
        classes.append(
            {
                "label": cm.label,
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


def _require(doc: dict, key: str, kind=None):
    if key not in doc:
        raise DataError(f"model file is missing key {key!r}")
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise DataError(f"model file key {key!r} has the wrong type")
    return value


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
    quantile = float(_require(doc, "outlier_quantile", (int, float)))
    cutoff = float(_require(doc, "outlier_cutoff", (int, float)))
    config = _require(doc, "fit_config", dict)
    raw_classes = _require(doc, "classes", list)
    if len(raw_classes) != G:
        raise DataError(f"model file lists {len(raw_classes)} classes but G = {G}")
    names = doc.get("label_names")
    if names is not None:
        if not isinstance(names, list) or len(names) != G:
            raise DataError("label_names must list one name per class")
        names = tuple(str(v) for v in names)

    classes = []
    for g, entry in enumerate(raw_classes, start=1):
        if not isinstance(entry, dict):
            raise DataError(f"class {g}: entry must be an object")
        mu = np.array(_require(entry, "mu", list), dtype=np.float64)
        sigma = np.array(_require(entry, "sigma", list), dtype=np.float64)
        if mu.shape != (p,) or sigma.shape != (p, p):
            raise DataError(f"class {g}: mu/sigma shapes do not match p = {p}")
        if int(entry["label"]) != g:
            raise DataError(f"class {g}: labels must be stored in order 1..G")
        classes.append(
            ClassModel(
                label=g,
                loc_scat=LocationScatter.from_sigma(mu, sigma),
                prior=float(_require(entry, "prior", (int, float))),
                n_raw=int(_require(entry, "n_raw", int)),
                n_inlier=int(_require(entry, "n_inlier", int)),
                blocks=int(entry.get("blocks", 1)),
            )
        )
    model = QdaModel(
        classes=tuple(classes),
        mode=mode,
        outlier_quantile=quantile,
        outlier_cutoff=cutoff,
        h_frac=float(config.get("h_frac", 0.5)),
        blocks_requested=str(config.get("q", "auto")),
        seed=int(config.get("seed", 0)),
    )
    return model, names


def save_model(path, model: QdaModel, label_names=None) -> Path:
    return write_text_atomic(path, model_to_json(model, label_names))


def load_model(path) -> tuple[QdaModel, tuple | None]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"model file is not UTF-8 text: {exc}") from None
    return model_from_json(text)

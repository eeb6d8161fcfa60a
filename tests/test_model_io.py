"""Tests for JSON model persistence."""
import json
import re

import numpy as np
import pytest

from robustqda.errors import DataError
from robustqda.model_io import (
    FORMAT_VERSION,
    load_model,
    model_from_json,
    model_to_json,
    save_model,
)
from robustqda.qda import classify_rows, fit_qda
from robustqda.core import LocationScatter, mvn_sample, substream


@pytest.fixture(scope="module")
def trained():
    est1 = LocationScatter.from_sigma([0.0, 0.0, 0.0], np.diag([1.0, 2.0, 0.5]))
    est2 = LocationScatter.from_sigma([4.0, -1.0, 2.0], np.diag([0.7, 1.1, 1.6]))
    X = np.vstack(
        [mvn_sample(substream(1, 1), est1, 300), mvn_sample(substream(1, 2), est2, 500)]
    )
    y = np.concatenate([np.ones(300, dtype=int), np.full(500, 2, dtype=int)])
    return fit_qda(X, y, mode="robust", blocks=2, seed=5), X


def test_round_trip_preserves_every_float(trained):
    model, _ = trained
    text = model_to_json(model)
    loaded, names = model_from_json(text)
    assert names is None
    assert loaded.mode == model.mode
    assert loaded.outlier_quantile == model.outlier_quantile
    assert loaded.outlier_cutoff == model.outlier_cutoff
    assert loaded.h_frac == model.h_frac
    assert loaded.blocks_requested == model.blocks_requested
    assert loaded.seed == model.seed
    for a, b in zip(loaded.classes, model.classes):
        assert a.label == b.label
        assert np.array_equal(a.loc_scat.mu, b.loc_scat.mu)
        assert np.array_equal(a.loc_scat.sigma, b.loc_scat.sigma)
        assert a.prior == b.prior
        assert (a.n_raw, a.n_inlier, a.blocks) == (b.n_raw, b.n_inlier, b.blocks)


def test_round_trip_classifies_identically(trained):
    model, X = trained
    loaded, _ = model_from_json(model_to_json(model))
    pts = np.random.default_rng(2).uniform(-6, 8, (500, 3))
    la, sa, ra, ma = classify_rows(model, pts)
    lb, sb, rb, mb = classify_rows(loaded, pts)
    assert np.array_equal(la, lb)
    assert np.array_equal(sa, sb)
    assert np.array_equal(ra, rb)
    assert np.array_equal(ma, mb)


def test_save_and_load_file(trained, tmp_path):
    model, _ = trained
    path = tmp_path / "model.json"
    save_model(path, model, label_names=("low", "high"))
    loaded, names = load_model(path)
    assert names == ("low", "high")
    assert loaded.n_classes == 2
    # a second save of the loaded model is byte-identical
    assert model_to_json(loaded, names) == path.read_text()


def test_document_shape(trained):
    model, _ = trained
    doc = json.loads(model_to_json(model))
    assert doc["format_version"] == FORMAT_VERSION
    assert doc["p"] == 3
    assert doc["G"] == 2
    assert doc["fit_config"] == {"h_frac": 0.5, "q": "2", "seed": 5}
    assert doc["label_names"] is None
    assert [c["label"] for c in doc["classes"]] == [1, 2]


class TestRejectsCorruptDocuments:
    def make(self, trained):
        model, _ = trained
        return json.loads(model_to_json(model))

    def test_bad_json(self):
        with pytest.raises(DataError, match="not valid JSON"):
            model_from_json("{")

    def test_not_an_object(self):
        with pytest.raises(DataError):
            model_from_json("[1, 2]")

    def test_wrong_version(self, trained):
        doc = self.make(trained)
        doc["format_version"] = 99
        with pytest.raises(DataError, match="format_version"):
            model_from_json(json.dumps(doc))

    def test_missing_key(self, trained):
        doc = self.make(trained)
        del doc["outlier_cutoff"]
        with pytest.raises(DataError, match="outlier_cutoff"):
            model_from_json(json.dumps(doc))

    def test_class_count_mismatch(self, trained):
        doc = self.make(trained)
        doc["classes"] = doc["classes"][:1]
        with pytest.raises(DataError, match="lists 1 classes"):
            model_from_json(json.dumps(doc))

    def test_shape_mismatch(self, trained):
        doc = self.make(trained)
        doc["classes"][0]["mu"] = [1.0, 2.0]
        with pytest.raises(DataError, match="class 1"):
            model_from_json(json.dumps(doc))

    def test_out_of_order_labels(self, trained):
        doc = self.make(trained)
        doc["classes"][0]["label"] = 2
        with pytest.raises(DataError, match="order 1..G"):
            model_from_json(json.dumps(doc))

    def test_label_names_length(self, trained):
        doc = self.make(trained)
        doc["label_names"] = ["only-one"]
        with pytest.raises(DataError, match="one name per class"):
            model_from_json(json.dumps(doc))

    def test_non_positive_definite_sigma(self, trained):
        doc = self.make(trained)
        doc["classes"][0]["sigma"] = [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]]
        with pytest.raises(Exception):
            model_from_json(json.dumps(doc))


def _drop(key):
    def edit(doc):
        del doc["classes"][0][key]
    return edit


def _set_class(key, value):
    def edit(doc):
        doc["classes"][0][key] = value
    return edit


def _set_config(key, value):
    def edit(doc):
        doc["fit_config"][key] = value
    return edit


def _set(key, value):
    def edit(doc):
        doc[key] = value
    return edit


def _no_classes(doc):
    doc["G"] = 0
    doc["classes"] = []


def _one_class(doc):
    doc["G"] = 1
    doc["classes"] = doc["classes"][:1]


def _no_features(doc):
    doc["p"] = 0
    for entry in doc["classes"]:
        entry["mu"], entry["sigma"] = [], []


def _ragged_sigma(doc):
    doc["classes"][0]["sigma"][1] = [1.0]


MALFORMED = {
    "class without label": (_drop("label"), "missing key 'classes[0].label'"),
    "text label": (_set_class("label", "one"), "key 'classes[0].label' has the wrong type"),
    "bool label": (_set_class("label", True), "key 'classes[0].label' has the wrong type"),
    "text blocks": (_set_class("blocks", "x"), "key 'classes[0].blocks' has the wrong type"),
    "class without blocks": (_drop("blocks"), "missing key 'classes[0].blocks'"),
    "text seed": (_set_config("seed", "x"), "key 'fit_config.seed' has the wrong type"),
    "text q": (_set_config("q", 4), "key 'fit_config.q' has the wrong type"),
    "list h_frac": (_set_config("h_frac", [1]), "key 'fit_config.h_frac' has the wrong type"),
    "text in mu": (_set_class("mu", [0.0, "a", 1.0]), "key 'classes[0].mu' must hold"),
    "numeric text in mu": (_set_class("mu", [0.0, "1", 1.0]), "key 'classes[0].mu' must hold"),
    "ragged sigma": (_ragged_sigma, "key 'classes[0].sigma' must hold"),
    "no classes": (_no_classes, "needs p >= 1 and G >= 2, got p = 3, G = 0"),
    "one class": (_one_class, "G >= 2"),
    "no features": (_no_features, "needs p >= 1"),
    "negative prior": (_set_class("prior", -1.0), "key 'classes[0].prior' is out of range: -1.0"),
    "zero prior": (_set_class("prior", 0), "key 'classes[0].prior' is out of range: 0.0"),
    "infinite prior": (_set_class("prior", float("inf")), "key 'classes[0].prior' is out of range: inf"),
    "unknown mode": (_set("mode", "fast"), "mode must be 'robust' or 'classical', got 'fast'"),
    "duplicate label names": (_set("label_names", ["a", "a"]), "key 'label_names' repeats a name"),
    "class named 0": (_set("label_names", ["0", "a"]), "no class may be named '0'"),
    "negative cutoff": (_set("outlier_cutoff", -5), "key 'outlier_cutoff' is out of range: -5.0"),
    "cutoff off its quantile": (_set("outlier_cutoff", 0.001), "key 'outlier_cutoff' is 0.001, but"),
    "quantile above 1": (_set("outlier_quantile", 2), "outlier_quantile must lie in (0, 1), got 2.0"),
    "h_frac above 1": (_set_config("h_frac", 9), "key 'fit_config.h_frac': coverage fraction must lie in"),
    "negative seed": (_set_config("seed", -1), "key 'fit_config.seed': seed must be a non-negative"),
    "q not a count": (_set_config("q", "x"), "key 'fit_config.q' is out of range: 'x'"),
    "zero q": (_set_config("q", "0"), "key 'fit_config.q' is out of range: '0'"),
    "zero blocks": (_set_class("blocks", 0), "key 'classes[0].blocks': q must be a positive integer"),
    "more inliers than rows": (_set_class("n_inlier", 301), "key 'classes[0].n_inlier' is out of range: 301"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_field_is_a_data_error_naming_the_key(trained, case):
    edit, message = MALFORMED[case]
    model, _ = trained
    doc = json.loads(model_to_json(model))
    edit(doc)
    with pytest.raises(DataError, match=re.escape(message)):
        model_from_json(json.dumps(doc))


def test_cutoff_within_scipy_rounding_loads(trained):
    # Files written while the quantile came from SciPy differ from
    # core.chi2_quantile in the last digits, by up to 8e-14 relative.
    model, _ = trained
    doc = json.loads(model_to_json(model))
    for factor in (1 - 8e-14, 1 + 8e-14):
        doc["outlier_cutoff"] = model.outlier_cutoff * factor
        assert model_from_json(json.dumps(doc))[0].outlier_cutoff == doc["outlier_cutoff"]


def test_written_block_counts_load(trained):
    model, _ = trained
    doc = json.loads(model_to_json(model))
    for q in ("auto", "1", "4.0"):
        doc["fit_config"]["q"] = q
        assert model_from_json(json.dumps(doc))[0].blocks_requested == q


def test_predict_with_a_negative_prior_exits_2(trained, tmp_path, capsys):
    from robustqda.cli import main

    model, X = trained
    doc = json.loads(model_to_json(model))
    doc["classes"][0]["prior"] = -1.0
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    feats = tmp_path / "x.csv"
    feats.write_text("a,b,c\n" + "".join(f"{r[0]!r},{r[1]!r},{r[2]!r}\n" for r in X[:5].tolist()))
    out = tmp_path / "p.csv"
    assert main(["predict", "--model", str(path), "--data", str(feats), "--out", str(out)]) == 2
    assert "key 'classes[0].prior' is out of range" in capsys.readouterr().err
    assert not out.exists()


def test_predict_on_a_class_without_label_exits_2(trained, tmp_path, capsys):
    from robustqda.cli import main

    model, X = trained
    doc = json.loads(model_to_json(model))
    del doc["classes"][1]["label"]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    feats = tmp_path / "x.csv"
    feats.write_text("a,b,c\n" + "".join(f"{r[0]!r},{r[1]!r},{r[2]!r}\n" for r in X[:5].tolist()))
    out = tmp_path / "p.csv"
    assert main(["predict", "--model", str(path), "--data", str(feats), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: DataError: model file is missing key 'classes[1].label'\n"
    assert not out.exists()

"""Tests for offline model persistence (train once, deploy later)."""

import copy
import json

import numpy as np
import pytest

from repro.benchsuite import get_benchmark
from repro.core import (
    PartitioningModel,
    TrainingConfig,
    generate_training_data,
    load_model,
    save_model,
)
from repro.machines import MC2
from repro.ml import MLPClassifier

SUITE = tuple(get_benchmark(n) for n in ("vec_add", "mat_mul", "hotspot"))


@pytest.fixture(scope="module")
def db():
    return generate_training_data(MC2, SUITE, TrainingConfig(max_sizes=3))


@pytest.mark.parametrize("kind", ["mlp", "knn", "majority"])
def test_round_trip_predictions_identical(kind, db, tmp_path):
    model = PartitioningModel(kind).fit(db)
    path = tmp_path / f"{kind}.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.kind == kind
    assert loaded.feature_names_ == model.feature_names_
    original = [p.label for p in model.predict_many(db)]
    restored = [p.label for p in loaded.predict_many(db)]
    assert original == restored


def test_round_trip_single_prediction(db, tmp_path):
    model = PartitioningModel("mlp").fit(db)
    path = tmp_path / "m.json"
    save_model(model, path)
    loaded = load_model(path)
    feats = db.records[0].features
    assert loaded.predict_features(feats) == model.predict_features(feats)


def test_unfitted_model_rejected(tmp_path):
    with pytest.raises(RuntimeError):
        save_model(PartitioningModel("mlp"), tmp_path / "m.json")


def test_tree_models_not_supported(db, tmp_path):
    model = PartitioningModel("tree").fit(db)
    with pytest.raises(NotImplementedError):
        save_model(model, tmp_path / "t.json")


def test_schema_version_checked(db, tmp_path):
    model = PartitioningModel("majority").fit(db)
    path = tmp_path / "m.json"
    save_model(model, path)
    path.write_text(
        path.read_text().replace('"schema_version": 1', '"schema_version": 9')
    )
    with pytest.raises(ValueError, match="schema"):
        load_model(path)


# -- mlp documents are checked as one network --------------------------------


@pytest.fixture(scope="module")
def mlp_doc(db, tmp_path_factory):
    path = tmp_path_factory.mktemp("mlp") / "model.json"
    save_model(PartitioningModel("mlp").fit(db), path)
    return json.loads(path.read_text())


def _load_edited(doc, tmp_path, edit):
    doc = copy.deepcopy(doc)
    edit(doc, doc["classifier"])
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return load_model(path)


def test_unedited_mlp_document_loads(mlp_doc, tmp_path):
    model = _load_edited(mlp_doc, tmp_path, lambda doc, clf: None)
    assert model.classifier.hidden_layers == (48, 24)
    assert model.classifier.activation == "tanh"


@pytest.mark.parametrize(
    "edit,match",
    [
        # One label more than the output layer has units: never predicted.
        (lambda doc, clf: clf["classes"].append("0/0/100x"), "layer 2 weights"),
        # One label fewer: predict_many raised IndexError.
        (lambda doc, clf: clf["classes"].pop(), "layer 2 weights"),
        # A bias one element short: a broadcast error at predict time.
        (lambda doc, clf: clf["biases"][1].pop(), "layer 1 bias"),
        (lambda doc, clf: clf["biases"].pop(), "bias vectors"),
        (lambda doc, clf: doc["feature_names"].pop(), "layer 0 weights"),
        (lambda doc, clf: clf.update(hidden_layers=[48, 23]), "layer 1 weights"),
        (lambda doc, clf: clf.update(hidden_layers=[48]), "hidden layers"),
        (lambda doc, clf: clf.update(activation="swish"), "activation"),
    ],
    ids=[
        "extra-class",
        "missing-class",
        "short-bias",
        "missing-bias",
        "missing-feature",
        "hidden-width",
        "hidden-depth",
        "unknown-activation",
    ],
)
def test_inconsistent_mlp_document_rejected(mlp_doc, tmp_path, edit, match):
    with pytest.raises(ValueError, match=match):
        _load_edited(mlp_doc, tmp_path, edit)


def test_mlp_architecture_restored(db, tmp_path):
    # A relu network with one hidden layer loaded as the default tanh
    # (48, 24) network before: same weights, different predictions.
    model = PartitioningModel("mlp")
    model.classifier = MLPClassifier(hidden_layers=(16,), activation="relu", epochs=60)
    model.fit(db)
    path = tmp_path / "relu.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.classifier.activation == "relu"
    assert loaded.classifier.hidden_layers == (16,)
    X = model.scaler.transform(db.matrices(model.feature_names_)[0])
    assert np.array_equal(
        loaded.classifier.predict_proba(X), model.classifier.predict_proba(X)
    )

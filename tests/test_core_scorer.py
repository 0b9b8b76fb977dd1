"""Tests for the scorer-model extension and the MLP regressor."""

import numpy as np
import pytest

from repro.benchsuite import get_benchmark
from repro.core import (
    PartitioningScorerModel,
    TrainingConfig,
    evaluate_lopo,
    generate_training_data,
    make_partitioning_model,
)
from repro.core.predictor import PartitioningModel
from repro.machines import MC2
from repro.ml.neural import MLPRegressor
from repro.partitioning import Partitioning, partition_space

SUITE = tuple(
    get_benchmark(n) for n in ("vec_add", "mat_mul", "black_scholes", "hotspot")
)


@pytest.fixture(scope="module")
def db():
    return generate_training_data(MC2, SUITE, TrainingConfig(max_sizes=3))


class TestMLPRegressor:
    def test_fits_linear_function(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(400, 3))
        y = 2.0 * X[:, 0] - X[:, 1] + 0.5
        m = MLPRegressor(hidden_layers=(16,), epochs=200, seed=0).fit(X, y)
        pred = m.predict(X)
        assert float(np.mean((pred - y) ** 2)) < 0.05

    def test_loss_decreases(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(200, 2))
        y = X[:, 0] ** 2
        m = MLPRegressor(epochs=50, seed=1).fit(X, y)
        assert m.loss_curve_[-1] < m.loss_curve_[0]

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            MLPRegressor().predict(np.zeros((2, 2)))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MLPRegressor().fit(np.zeros((4, 2)), np.zeros(3))

    def test_nonfinite_rejected(self):
        X = np.zeros((4, 2))
        y = np.array([0.0, 1.0, np.nan, 2.0])
        with pytest.raises(ValueError):
            MLPRegressor().fit(X, y)

    def test_target_standardization_roundtrip(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(300, 2))
        y = 1e6 + 1e4 * X[:, 0]  # large offset/scale
        m = MLPRegressor(hidden_layers=(8,), epochs=150, seed=2).fit(X, y)
        pred = m.predict(X)
        assert abs(float(np.mean(pred)) - 1e6) < 2e3


class TestScorerModel:
    def test_knn_scorer_predicts_in_space(self, db):
        model = PartitioningScorerModel("knn-scorer").fit(db)
        preds = model.predict_many(db)
        space = set(partition_space(3, 10))
        assert all(p in space for p in preds)

    def test_knn_scorer_training_quality(self, db):
        model = PartitioningScorerModel("knn-scorer", k=1).fit(db)
        # k=1 reproduces each training record's own oracle.
        assert model.accuracy_on(db) == pytest.approx(1.0)

    def test_can_predict_unseen_labels(self, db):
        """The key property: the scorer can output partitionings that
        are nobody's oracle label in the training set."""
        model = PartitioningScorerModel("knn-scorer", k=3).fit(db)
        seen = {r.best_label for r in db.records}
        space = partition_space(3, 10)
        assert len(seen) < len(space)  # precondition: unseen labels exist
        # Scores are defined for every candidate, seen or not.
        scores = model._scores_matrix(model._X[0][None, :])[0]
        assert len(scores) == len(space)

    def test_factory_dispatch(self):
        assert isinstance(
            make_partitioning_model("knn-scorer"), PartitioningScorerModel
        )
        assert isinstance(make_partitioning_model("mlp"), PartitioningModel)
        with pytest.raises(ValueError):
            make_partitioning_model("quantum")

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            PartitioningScorerModel().predict_features({"a": 1.0})

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PartitioningScorerModel("tree")
        with pytest.raises(ValueError):
            PartitioningScorerModel(k=0)

    def test_lopo_evaluation_with_scorer(self, db):
        ev = evaluate_lopo(MC2, db, model_kind="knn-scorer")
        assert ev.geomean_oracle_efficiency > 0.5

    def test_mlp_scorer_small(self, db):
        model = PartitioningScorerModel("mlp-scorer", seed=0).fit(db)
        p = model.predict_features(db.records[0].features)
        assert isinstance(p, Partitioning)
        # Trained on its own records, the regressor should score the
        # oracle region better than the worst corner most of the time.
        hits = 0
        for r in db.records:
            pred = model.predict_features(r.features)
            if r.timings[pred.label] <= 2.0 * r.best_time:
                hits += 1
        assert hits >= len(db.records) * 0.6

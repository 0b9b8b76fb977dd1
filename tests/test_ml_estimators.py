"""Tests for the from-scratch classifiers."""

import numpy as np
import pytest

from repro.ml import (
    DecisionTreeClassifier,
    KNeighborsClassifier,
    MajorityClassifier,
    MLPClassifier,
    RandomForestClassifier,
    accuracy,
)
from repro.ml.neural import MLPRegressor


def _blobs(n=240, classes=3, d=4, spread=0.4, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack(
        [rng.normal(3.0 * c, spread, size=(n // classes, d)) for c in range(classes)]
    )
    y = np.repeat(np.arange(classes), n // classes)
    perm = rng.permutation(len(y))
    return X[perm], y[perm]


ALL_MODELS = [
    ("mlp", lambda: MLPClassifier(epochs=120, seed=0)),
    ("tree", lambda: DecisionTreeClassifier(max_depth=8)),
    ("forest", lambda: RandomForestClassifier(n_estimators=12, seed=0)),
    ("knn", lambda: KNeighborsClassifier(k=3)),
]


@pytest.mark.parametrize("name,factory", ALL_MODELS)
class TestCommonBehaviour:
    def test_separable_blobs_high_accuracy(self, name, factory):
        X, y = _blobs()
        model = factory().fit(X[:180], y[:180])
        assert model.score(X[180:], y[180:]) >= 0.95

    def test_predict_before_fit_raises(self, name, factory):
        with pytest.raises(RuntimeError):
            factory().predict(np.zeros((2, 3)))

    def test_single_class_training(self, name, factory):
        X = np.random.default_rng(0).normal(size=(20, 3))
        y = np.full(20, 7)
        model = factory().fit(X, y)
        assert set(model.predict(X)) == {7}

    def test_string_labels_supported(self, name, factory):
        X, y = _blobs(n=120, classes=2)
        labels = np.array(["40/30/30", "100/0/0"])[y]
        model = factory().fit(X, labels)
        pred = model.predict(X)
        assert set(pred) <= {"40/30/30", "100/0/0"}
        assert accuracy(labels, pred) > 0.9

    def test_rejects_nan_features(self, name, factory):
        X, y = _blobs(n=60, classes=2)
        X[0, 0] = np.nan
        with pytest.raises(ValueError):
            factory().fit(X, y)

    def test_rejects_mismatched_lengths(self, name, factory):
        X, y = _blobs(n=60, classes=2)
        with pytest.raises(ValueError):
            factory().fit(X, y[:-5])

    def test_deterministic_given_seed(self, name, factory):
        X, y = _blobs(n=120)
        p1 = factory().fit(X, y).predict(X)
        p2 = factory().fit(X, y).predict(X)
        assert np.array_equal(p1, p2)


class TestMLPSpecifics:
    def test_loss_decreases(self):
        X, y = _blobs()
        m = MLPClassifier(epochs=60, seed=1).fit(X, y)
        assert m.loss_curve_[-1] < m.loss_curve_[0]

    def test_predict_proba_rows_sum_to_one(self):
        X, y = _blobs()
        m = MLPClassifier(epochs=40, seed=1).fit(X, y)
        probs = m.predict_proba(X[:10])
        assert probs.shape == (10, 3)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_relu_activation(self):
        X, y = _blobs(n=120)
        m = MLPClassifier(activation="relu", epochs=80, seed=2).fit(X, y)
        assert m.score(X, y) > 0.9

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError):
            MLPClassifier(activation="swish")

    def test_bad_hidden_sizes_rejected(self):
        with pytest.raises(ValueError):
            MLPClassifier(hidden_layers=(0,))

    def test_early_stopping_respects_patience(self):
        X, y = _blobs(n=90)
        m = MLPClassifier(epochs=5000, patience=5, seed=0).fit(X, y)
        assert len(m.loss_curve_) < 5000

    def test_continue_fit_warm_starts_from_current_weights(self):
        X, y = _blobs()
        m = MLPClassifier(epochs=30, seed=1).fit(X, y)
        weights_before = [w.copy() for w in m._weights]
        m.continue_fit(X, y, epochs=10)
        # Training continued (weights moved) from a near-converged
        # state: the continuation starts near the previous loss floor,
        # far below a from-scratch first epoch.
        assert any(
            not np.array_equal(a, b) for a, b in zip(weights_before, m._weights)
        )
        fresh = MLPClassifier(epochs=1, seed=1).fit(X, y)
        assert m.loss_curve_[0] < fresh.loss_curve_[0] / 2

    def test_continue_fit_rejects_unseen_labels(self):
        X, y = _blobs(n=120, classes=2)
        m = MLPClassifier(epochs=20, seed=0).fit(X, y)
        with pytest.raises(ValueError, match="absent"):
            m.continue_fit(X, np.full(len(X), 99))

    def test_continue_fit_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            MLPClassifier().continue_fit(np.zeros((4, 2)), np.zeros(4))

    @pytest.mark.parametrize("epochs", [0, -3])
    def test_continue_fit_rejects_non_positive_epochs(self, epochs):
        X, y = _blobs(n=60)
        m = MLPClassifier(epochs=5, seed=0).fit(X, y)
        curve = list(m.loss_curve_)
        with pytest.raises(ValueError, match="epochs"):
            m.continue_fit(X, y, epochs=epochs)
        assert m.loss_curve_ == curve


#: (field, bad value) pairs both MLPs must reject at construction, not
#: train on (a NaN or infinite step or decay makes every weight NaN).
BAD_MLP_HYPERPARAMETERS = [
    ("learning_rate", 0.0),
    ("learning_rate", -0.01),
    ("learning_rate", float("nan")),
    ("learning_rate", float("inf")),
    ("l2", -1e-4),
    ("l2", float("nan")),
    ("l2", float("inf")),
    ("tol", -1e-5),
    ("tol", float("nan")),
    ("tol", float("inf")),
    ("patience", 0),
    ("patience", -1),
]


@pytest.mark.parametrize("cls", [MLPClassifier, MLPRegressor])
@pytest.mark.parametrize("field,value", BAD_MLP_HYPERPARAMETERS)
def test_mlp_rejects_bad_hyperparameters(cls, field, value):
    with pytest.raises(ValueError, match=field):
        cls(**{field: value})


@pytest.mark.parametrize("cls", [MLPClassifier, MLPRegressor])
def test_mlp_accepts_boundary_hyperparameters(cls):
    m = cls(l2=0.0, tol=0.0, patience=1, epochs=1, learning_rate=1e-9)
    assert (m.l2, m.tol, m.patience) == (0.0, 0.0, 1)


class TestTreeSpecifics:
    def test_max_depth_respected(self):
        X, y = _blobs(n=200, spread=2.5)
        t = DecisionTreeClassifier(max_depth=2).fit(X, y)
        assert t.depth_ <= 2

    def test_pure_leaf_short_circuit(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1, 1, 1])
        t = DecisionTreeClassifier().fit(X, y)
        assert t.node_count_ == 1

    def test_min_samples_leaf(self):
        X, y = _blobs(n=60, classes=2)
        t = DecisionTreeClassifier(min_samples_leaf=20).fit(X, y)
        assert t.depth_ <= 3

    def test_xor_needs_depth_two(self):
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]] * 20, dtype=float)
        y = np.array([0, 1, 1, 0] * 20)
        t = DecisionTreeClassifier(max_depth=4).fit(X, y)
        assert t.score(X, y) == 1.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier(min_samples_split=1)
        with pytest.raises(ValueError):
            DecisionTreeClassifier(min_samples_leaf=0)


class TestForestSpecifics:
    def test_more_trees_not_worse_on_noise(self):
        X, y = _blobs(n=240, spread=2.0, seed=5)
        small = RandomForestClassifier(n_estimators=1, seed=3).fit(X[:180], y[:180])
        big = RandomForestClassifier(n_estimators=30, seed=3).fit(X[:180], y[:180])
        assert big.score(X[180:], y[180:]) >= small.score(X[180:], y[180:]) - 0.05

    def test_invalid_estimators(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0)


class TestKNNSpecifics:
    def test_k_one_memorizes(self):
        X, y = _blobs(n=120)
        m = KNeighborsClassifier(k=1).fit(X, y)
        assert m.score(X, y) == 1.0

    def test_distance_weighting(self):
        X = np.array([[0.0], [1.0], [1.1], [1.2]])
        y = np.array([0, 1, 1, 1])
        m = KNeighborsClassifier(k=4, weights="distance").fit(X, y)
        assert m.predict(np.array([[0.01]]))[0] == 0

    def test_k_clamped_to_dataset(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        m = KNeighborsClassifier(k=50).fit(X, y)
        m.predict(np.array([[0.4]]))  # must not raise

    def test_feature_count_mismatch(self):
        X, y = _blobs(n=60)
        m = KNeighborsClassifier().fit(X, y)
        with pytest.raises(ValueError):
            m.predict(np.zeros((2, X.shape[1] + 1)))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            KNeighborsClassifier(k=0)
        with pytest.raises(ValueError):
            KNeighborsClassifier(weights="parabolic")


class TestMetrics:
    def test_accuracy(self):
        assert accuracy(np.array([1, 2, 3]), np.array([1, 2, 4])) == pytest.approx(
            2 / 3
        )

    def test_accuracy_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy(np.array([]), np.array([]))

    def test_majority_baseline(self):
        X = np.zeros((5, 2))
        y = np.array([3, 3, 3, 1, 1])
        m = MajorityClassifier().fit(X, y)
        assert set(m.predict(X)) == {3}

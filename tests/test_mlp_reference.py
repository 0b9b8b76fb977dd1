"""The flat-vector training loop against the per-layer loops it replaced.

``repro.ml.neural`` trains both networks through one loop that keeps
the layers as views into one parameter vector and applies one Adam
update per step over the whole vector.  The functions below are the
per-layer implementations it replaced, copied unchanged (only
``self._forward``/``self._backward``/``self._train_loop`` calls now name
the copies).  Every Adam operation is elementwise and the forward and
backward arithmetic keeps its order, so weights, biases, loss curves
and predictions must be *equal*, not close.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.benchsuite import get_benchmark
from repro.core import (
    TrainingConfig,
    TrainingDatabase,
    generate_training_data,
    load_model,
    make_partitioning_model,
    save_model,
)
from repro.core.predictor import PartitioningModel
from repro.machines import MC2
from repro.ml.base import check_Xy
from repro.ml.neural import MLPClassifier, MLPRegressor

# -- the per-layer reference ---------------------------------------------------

_ACTIVATIONS = {
    "tanh": (np.tanh, lambda a: 1.0 - a * a),
    "relu": (lambda z: np.maximum(z, 0.0), lambda a: (a > 0.0).astype(a.dtype)),
}


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def reference_forward(self, X: np.ndarray) -> list[np.ndarray]:
    """Return activations per layer; last entry is softmax output."""
    act, _ = _ACTIVATIONS[self.activation]
    a = X
    activations = [a]
    last = len(self._weights) - 1
    for i, (W, b) in enumerate(zip(self._weights, self._biases)):
        z = a @ W + b
        a = _softmax(z) if i == last else act(z)
        activations.append(a)
    return activations


def reference_backward(
    self, activations: list[np.ndarray], y_onehot: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    _, dact = _ACTIVATIONS[self.activation]
    n = len(y_onehot)
    grads_W: list[np.ndarray] = [np.empty(0)] * len(self._weights)
    grads_b: list[np.ndarray] = [np.empty(0)] * len(self._biases)
    # Softmax + cross-entropy gradient.
    delta = (activations[-1] - y_onehot) / n
    for i in range(len(self._weights) - 1, -1, -1):
        grads_W[i] = activations[i].T @ delta + self.l2 * self._weights[i]
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ self._weights[i].T) * dact(activations[i])
    return grads_W, grads_b


def reference_classifier_fit(self, X: np.ndarray, y: np.ndarray) -> "MLPClassifier":
    X, y = check_Xy(X, y)
    assert y is not None
    self.classes_, y_idx = np.unique(y, return_inverse=True)
    n_classes = len(self.classes_)
    n, d = X.shape
    rng = np.random.default_rng(self.seed)

    sizes = [d, *self.hidden_layers, n_classes]
    self._weights = []
    self._biases = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        # Xavier/Glorot initialization.
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        self._weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        self._biases.append(np.zeros(fan_out))

    if n_classes == 1:
        # Degenerate single-class training set.
        self.loss_curve_ = [0.0]
        return self

    reference_train_loop(self, X, y_idx, self.epochs, rng)
    return self


def reference_continue_fit(
    self, X: np.ndarray, y: np.ndarray, epochs: int | None = None
) -> "MLPClassifier":
    if self.classes_ is None or not self._weights:
        raise RuntimeError("classifier is not fitted")
    X, y = check_Xy(X, y)
    assert y is not None
    if len(self.classes_) == 1:
        return self
    class_index = {c: i for i, c in enumerate(self.classes_)}
    unseen = sorted(set(map(str, y)) - set(map(str, self.classes_)))
    if unseen:
        raise ValueError(f"labels absent from the fitted classes: {unseen}")
    y_idx = np.array([class_index[v] for v in y])
    rng = np.random.default_rng(self.seed + 1)
    reference_train_loop(
        self, X, y_idx, epochs if epochs is not None else self.epochs, rng
    )
    return self


def reference_train_loop(
    self,
    X: np.ndarray,
    y_idx: np.ndarray,
    epochs: int,
    rng: np.random.Generator,
) -> None:
    """Mini-batched Adam with early stopping over the current weights."""
    n = len(X)
    n_classes = len(self.classes_)
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y_idx] = 1.0

    # Adam state.
    mW = [np.zeros_like(W) for W in self._weights]
    vW = [np.zeros_like(W) for W in self._weights]
    mb = [np.zeros_like(b) for b in self._biases]
    vb = [np.zeros_like(b) for b in self._biases]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    batch = min(self.batch_size, n)
    best_loss = np.inf
    stale = 0
    self.loss_curve_ = []
    for _epoch in range(epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            acts = reference_forward(self, X[idx])
            probs = acts[-1]
            epoch_loss += -float(
                np.sum(np.log(probs[np.arange(len(idx)), y_idx[idx]] + 1e-12))
            )
            gW, gb = reference_backward(self, acts, onehot[idx])
            step += 1
            corr1 = 1.0 - beta1**step
            corr2 = 1.0 - beta2**step
            for i in range(len(self._weights)):
                mW[i] = beta1 * mW[i] + (1 - beta1) * gW[i]
                vW[i] = beta2 * vW[i] + (1 - beta2) * gW[i] ** 2
                mb[i] = beta1 * mb[i] + (1 - beta1) * gb[i]
                vb[i] = beta2 * vb[i] + (1 - beta2) * gb[i] ** 2
                self._weights[i] -= (
                    self.learning_rate
                    * (mW[i] / corr1)
                    / (np.sqrt(vW[i] / corr2) + eps)
                )
                self._biases[i] -= (
                    self.learning_rate
                    * (mb[i] / corr1)
                    / (np.sqrt(vb[i] / corr2) + eps)
                )
        epoch_loss /= n
        self.loss_curve_.append(epoch_loss)
        if epoch_loss < best_loss - self.tol:
            best_loss = epoch_loss
            stale = 0
        else:
            stale += 1
            if stale >= self.patience:
                break


def reference_regressor_forward(self, X: np.ndarray) -> list[np.ndarray]:
    act, _ = _ACTIVATIONS[self.activation]
    a = X
    activations = [a]
    last = len(self._weights) - 1
    for i, (W, b) in enumerate(zip(self._weights, self._biases)):
        z = a @ W + b
        a = z if i == last else act(z)  # identity output layer
        activations.append(a)
    return activations


def reference_regressor_fit(self, X: np.ndarray, y: np.ndarray) -> "MLPRegressor":
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or len(X) != len(y):
        raise ValueError("X must be (n, d) and y must be (n,)")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("non-finite training data")
    n, d = X.shape
    # Standardize the target for stable optimization.
    self._y_mean = float(y.mean())
    self._y_scale = float(y.std()) or 1.0
    yz = (y - self._y_mean) / self._y_scale

    rng = np.random.default_rng(self.seed)
    sizes = [d, *self.hidden_layers, 1]
    self._weights = []
    self._biases = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        self._weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        self._biases.append(np.zeros(fan_out))

    act, dact = _ACTIVATIONS[self.activation]
    mW = [np.zeros_like(W) for W in self._weights]
    vW = [np.zeros_like(W) for W in self._weights]
    mb = [np.zeros_like(b) for b in self._biases]
    vb = [np.zeros_like(b) for b in self._biases]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    batch = min(self.batch_size, n)
    best_loss = np.inf
    stale = 0
    self.loss_curve_ = []
    for _epoch in range(self.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            acts = reference_regressor_forward(self, X[idx])
            pred = acts[-1][:, 0]
            err = pred - yz[idx]
            epoch_loss += float(err @ err)
            delta = (err / len(idx))[:, None]
            step += 1
            corr1 = 1.0 - beta1**step
            corr2 = 1.0 - beta2**step
            for i in range(len(self._weights) - 1, -1, -1):
                gW = acts[i].T @ delta + self.l2 * self._weights[i]
                gb = delta.sum(axis=0)
                if i > 0:
                    delta = (delta @ self._weights[i].T) * dact(acts[i])
                mW[i] = beta1 * mW[i] + (1 - beta1) * gW
                vW[i] = beta2 * vW[i] + (1 - beta2) * gW**2
                mb[i] = beta1 * mb[i] + (1 - beta1) * gb
                vb[i] = beta2 * vb[i] + (1 - beta2) * gb**2
                self._weights[i] -= (
                    self.learning_rate
                    * (mW[i] / corr1)
                    / (np.sqrt(vW[i] / corr2) + eps)
                )
                self._biases[i] -= (
                    self.learning_rate
                    * (mb[i] / corr1)
                    / (np.sqrt(vb[i] / corr2) + eps)
                )
        epoch_loss /= n
        self.loss_curve_.append(epoch_loss)
        if epoch_loss < best_loss - self.tol:
            best_loss = epoch_loss
            stale = 0
        else:
            stale += 1
            if stale >= self.patience:
                break
    self._fitted = True
    return self


# -- helpers -------------------------------------------------------------------


def _blobs(n: int, classes: int, d: int = 7, seed: int = 0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=3.0, size=(classes, d))
    y = np.arange(n) % classes
    X = centers[y] + rng.normal(size=(n, d))
    return X, y


def assert_same_network(new, ref) -> None:
    """Equal layers and loss curves: bit-identical, not approximately."""
    assert len(new._weights) == len(ref._weights)
    for a, b in zip(new._weights, ref._weights):
        assert np.array_equal(a, b)
    for a, b in zip(new._biases, ref._biases):
        assert np.array_equal(a, b)
    assert new.loss_curve_ == ref.loss_curve_


def assert_same_classifier(new: MLPClassifier, ref: MLPClassifier, X) -> None:
    assert_same_network(new, ref)
    assert np.array_equal(new.classes_, ref.classes_)
    # Inference too: the in-place forward pass against the reference one.
    assert np.array_equal(new.predict_proba(X), reference_forward(ref, X)[-1])
    assert np.array_equal(new.predict(X), ref.predict(X))


# -- MLPClassifier -------------------------------------------------------------

#: n below the batch size, a multiple of it, and not a multiple (batch 32).
SIZES = (20, 64, 75)


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("n", SIZES)
def test_fit_matches_reference(activation, n):
    X, y = _blobs(n, classes=4, seed=n)
    params = dict(hidden_layers=(12, 6), activation=activation, epochs=40, seed=3)
    new = MLPClassifier(**params).fit(X, y)
    ref = reference_classifier_fit(MLPClassifier(**params), X, y)
    assert len(new.loss_curve_) == 40
    assert_same_classifier(new, ref, X)


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_fit_matches_reference_deep_and_wide(activation):
    # The serving model's shape: 35 -> 48 -> 24 -> classes, 9 classes.
    X, y = _blobs(149, classes=9, d=35, seed=5)
    params = dict(hidden_layers=(48, 24), activation=activation, epochs=25, seed=0)
    new = MLPClassifier(**params).fit(X, y)
    ref = reference_classifier_fit(MLPClassifier(**params), X, y)
    assert_same_classifier(new, ref, X)


def test_fit_matches_reference_with_string_labels_and_one_hidden_layer():
    X, y_idx = _blobs(50, classes=3, seed=9)
    y = np.array(["70/20/10", "0/100/0", "50/50/0"])[y_idx]
    params = dict(hidden_layers=(5,), epochs=30, batch_size=8, l2=0.0, seed=2)
    new = MLPClassifier(**params).fit(X, y)
    ref = reference_classifier_fit(MLPClassifier(**params), X, y)
    assert_same_classifier(new, ref, X)


def test_early_stopping_matches_reference():
    X, y = _blobs(90, classes=3, seed=1)
    params = dict(epochs=5000, patience=5, tol=1e-3, seed=0)
    new = MLPClassifier(**params).fit(X, y)
    ref = reference_classifier_fit(MLPClassifier(**params), X, y)
    assert len(new.loss_curve_) < 5000  # early stopping fired
    assert_same_classifier(new, ref, X)


def test_single_class_matches_reference():
    X, _ = _blobs(12, classes=2)
    y = np.zeros(12, dtype=int)
    new = MLPClassifier(epochs=10).fit(X, y)
    ref = reference_classifier_fit(MLPClassifier(epochs=10), X, y)
    assert_same_network(new, ref)


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("n", SIZES)
def test_continue_fit_after_fit_matches_reference(activation, n):
    X, y = _blobs(n, classes=3, seed=n + 1)
    params = dict(hidden_layers=(10, 8), activation=activation, epochs=30, seed=4)
    new = MLPClassifier(**params).fit(X, y)
    ref = reference_classifier_fit(MLPClassifier(**params), X, y)
    # New rows, and a subset of the fitted labels: a warm start.
    X2, y2 = _blobs(n + 7, classes=2, seed=n + 2)
    new.continue_fit(X2, y2, epochs=15)
    reference_continue_fit(ref, X2, y2, epochs=15)
    assert_same_classifier(new, ref, X2)
    # A second warm start continues from the first one's weights.
    new.continue_fit(X, y)
    reference_continue_fit(ref, X, y)
    assert_same_classifier(new, ref, X)


# -- MLPRegressor --------------------------------------------------------------


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("n", SIZES)
def test_regressor_fit_matches_reference(activation, n):
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, 6))
    y = X @ rng.normal(size=6) + np.sin(X[:, 0]) + 5.0
    params = dict(
        hidden_layers=(9, 4), activation=activation, epochs=35, batch_size=32, seed=1
    )
    new = MLPRegressor(**params).fit(X, y)
    ref = reference_regressor_fit(MLPRegressor(**params), X, y)
    assert_same_network(new, ref)
    assert (new._y_mean, new._y_scale) == (ref._y_mean, ref._y_scale)
    expected = reference_regressor_forward(ref, X)[-1][:, 0] * ref._y_scale
    assert np.array_equal(new.predict(X), expected + ref._y_mean)


def test_regressor_defaults_and_early_stopping_match_reference():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(300, 5))
    y = np.log1p(np.abs(X).sum(axis=1))
    params = dict(epochs=400, patience=3, tol=1e-3)
    new = MLPRegressor(**params).fit(X, y)
    ref = reference_regressor_fit(MLPRegressor(**params), X, y)
    assert len(new.loss_curve_) < 400  # early stopping fired
    assert_same_network(new, ref)


# -- the partitioning model ----------------------------------------------------

SUITE = tuple(get_benchmark(n) for n in ("vec_add", "mat_mul", "hotspot", "nbody"))


@pytest.fixture(scope="module")
def campaign():
    return generate_training_data(MC2, SUITE, TrainingConfig(max_sizes=3))


def _drop_label(db: TrainingDatabase) -> tuple[TrainingDatabase, str]:
    """The campaign without its rarest oracle label (kept for the refit)."""
    labels = [r.best_label for r in db.records]
    rare = min(sorted(set(labels)), key=labels.count)
    kept = TrainingDatabase(r for r in db.records if r.best_label != rare)
    return kept, rare


def _train_and_refit(campaign: TrainingDatabase):
    """Fit, warm-start refit, unseen-label refit; snapshot each stage."""
    kept, rare = _drop_label(campaign)
    assert len({r.best_label for r in kept.records}) > 1
    model = make_partitioning_model("mlp")
    stages = []
    model.fit(kept)
    stages.append(copy.deepcopy(model.classifier))
    fitted = model.classifier
    model.refit(kept)  # every label seen: continue_fit (warm start)
    assert model.classifier is fitted
    stages.append(copy.deepcopy(model.classifier))
    model.refit(campaign)  # the rare label is new: full re-fit
    assert model.classifier is not fitted
    assert rare in model.classifier.classes_
    stages.append(copy.deepcopy(model.classifier))
    return model, stages


def test_partitioning_model_fit_and_refits_match_reference(campaign, monkeypatch):
    new_model, new_stages = _train_and_refit(campaign)
    with monkeypatch.context() as patch:
        patch.setattr(MLPClassifier, "_train_loop", reference_train_loop)
        ref_model, ref_stages = _train_and_refit(campaign)
    X = new_model.scaler.transform(campaign.matrices(new_model.feature_names_)[0])
    for new, ref in zip(new_stages, ref_stages):
        assert_same_classifier(new, ref, X)
    assert [p.label for p in new_model.predict_many(campaign)] == [
        p.label for p in ref_model.predict_many(campaign)
    ]


def test_continue_fit_after_round_trip_matches_reference(campaign, tmp_path):
    model = PartitioningModel("mlp").fit(campaign)
    path = tmp_path / "model.json"
    save_model(model, path)
    new, ref = load_model(path), load_model(path)
    X, y, _groups = campaign.matrices(new.feature_names_)
    Xs = new.scaler.transform(X)
    new.classifier.continue_fit(Xs, y, epochs=PartitioningModel.INCREMENTAL_EPOCHS)
    reference_continue_fit(
        ref.classifier, Xs, y, epochs=PartitioningModel.INCREMENTAL_EPOCHS
    )
    assert_same_classifier(new.classifier, ref.classifier, Xs)

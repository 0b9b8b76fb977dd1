"""Feed-forward neural networks (the paper-family model).

The Insieme task-partitioning line of work trains artificial neural
networks over static + runtime features; this is a small but complete
NumPy implementation: dense layers, tanh/ReLU hidden activations,
softmax cross-entropy (classifier) or MSE (regressor) losses, Adam
optimizer, mini-batching and early stopping — everything needed to
train reliably on a few hundred feature vectors with ~66 classes, or
on ~10k (features, partitioning) → time samples for the scorer model.

Both networks train through one loop (:meth:`_MLP._train_loop`).  It
packs every weight matrix and bias vector into one flat parameter
vector (the layers become views into it), writes each step's gradients
into a matching flat gradient vector, and applies one Adam update over
the whole vector per step.  Adam is elementwise, so this computes the
same float per parameter as one update per layer array would:
``tests/test_mlp_reference.py`` holds the per-layer loops as the
reference and requires bit-identical weights and loss curves.
"""

from __future__ import annotations

import math

import numpy as np

from .base import Classifier, check_Xy

__all__ = ["MLPClassifier", "MLPRegressor"]

#: name -> (activation, its derivative in terms of the activation).  The
#: activation overwrites its argument, always a fresh pre-activation.
_ACTIVATIONS = {
    "tanh": (
        lambda z: np.tanh(z, out=z),
        lambda a: 1.0 - a * a,
    ),
    "relu": (
        lambda z: np.maximum(z, 0.0, out=z),
        lambda a: (a > 0.0).astype(a.dtype),
    ),
}

_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


def _softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax, in place."""
    z -= np.maximum.reduce(z, axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=1, keepdims=True)
    return z


def _pack(arrays: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Copy ``arrays`` into one flat vector; return it and a view per array."""
    flat = np.empty(sum(a.size for a in arrays))
    views = []
    offset = 0
    for a in arrays:
        view = flat[offset : offset + a.size].reshape(a.shape)
        view[...] = a
        views.append(view)
        offset += a.size
    return flat, views


class _Adam:
    """Adam over one flat parameter vector: one elementwise pass per step.

    ``update`` evaluates ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g²``
    and ``p -= lr * (m/c1) / (sqrt(v/c2) + eps)`` with the operands of
    every rounding in the same order as the per-array expressions, so
    the result is bit-identical to updating each layer on its own.
    """

    def __init__(self, params: np.ndarray, learning_rate: float):
        self.params = params
        self.learning_rate = learning_rate
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._num = np.empty_like(params)
        self._den = np.empty_like(params)
        self.step = 0

    def update(self, grad: np.ndarray) -> None:
        self.step += 1
        corr1 = 1.0 - _BETA1**self.step
        corr2 = 1.0 - _BETA2**self.step
        m, v, num, den = self.m, self.v, self._num, self._den
        m *= _BETA1
        np.multiply(grad, 1 - _BETA1, out=num)
        m += num
        v *= _BETA2
        np.multiply(grad, grad, out=den)
        den *= 1 - _BETA2
        v += den
        np.divide(m, corr1, out=num)
        num *= self.learning_rate
        np.divide(v, corr2, out=den)
        np.sqrt(den, out=den)
        den += _EPS
        num /= den
        self.params -= num


class _MLP:
    """Dense layers, hyperparameters and the one mini-batch Adam loop.

    Subclasses define the output layer (:meth:`_output`) and turn its
    activations into the loss gradient (:meth:`_output_delta`).
    """

    def __init__(
        self,
        hidden_layers: tuple[int, ...],
        activation: str,
        learning_rate: float,
        epochs: int,
        batch_size: int,
        l2: float,
        seed: int,
        tol: float,
        patience: int,
    ):
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        if any(h < 1 for h in hidden_layers):
            raise ValueError("hidden layer sizes must be positive")
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if not (math.isfinite(learning_rate) and learning_rate > 0):
            raise ValueError(
                f"learning_rate must be finite and > 0, got {learning_rate}"
            )
        if not (math.isfinite(l2) and l2 >= 0):
            raise ValueError(f"l2 must be finite and >= 0, got {l2}")
        if not (math.isfinite(tol) and tol >= 0):
            raise ValueError(f"tol must be finite and >= 0, got {tol}")
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        self.hidden_layers = tuple(hidden_layers)
        self.activation = activation
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.batch_size = batch_size
        self.l2 = l2
        self.seed = seed
        self.tol = tol
        self.patience = patience
        self._weights: list[np.ndarray] = []
        self._biases: list[np.ndarray] = []
        self.loss_curve_: list[float] = []

    def _init_layers(self, sizes: list[int], rng: np.random.Generator) -> None:
        self._weights = []
        self._biases = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            # Xavier/Glorot initialization.
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            self._weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
            self._biases.append(np.zeros(fan_out))

    def _output(self, z: np.ndarray) -> np.ndarray:
        """Output-layer activation of the pre-activations ``z`` (in place)."""
        raise NotImplementedError

    def _output_delta(
        self, out: np.ndarray, target: np.ndarray, rows: np.ndarray
    ) -> float:
        """Turn ``out`` into the output delta in place; return the batch loss.

        ``rows`` is ``arange(len(target))``.  The loss is the batch's
        summed per-sample loss, before any division.
        """
        raise NotImplementedError

    def _forward(self, X: np.ndarray) -> list[np.ndarray]:
        """Return activations per layer; the last entry is the output."""
        act, _ = _ACTIVATIONS[self.activation]
        a = X
        activations = [a]
        last = len(self._weights) - 1
        for i, (W, b) in enumerate(zip(self._weights, self._biases)):
            z = a @ W
            z += b
            a = self._output(z) if i == last else act(z)
            activations.append(a)
        return activations

    def _train_loop(
        self,
        X: np.ndarray,
        target: np.ndarray,
        epochs: int,
        rng: np.random.Generator,
    ) -> None:
        """Mini-batched Adam with early stopping over the current weights.

        The layers are repacked as views into one flat parameter vector
        (weights first, then biases), so the L2 term and the Adam update
        are one operation each over the whole network.
        """
        _, dact = _ACTIVATIONS[self.activation]
        depth = len(self._weights)
        params, layers = _pack([*self._weights, *self._biases])
        self._weights, self._biases = layers[:depth], layers[depth:]
        n_weights = sum(W.size for W in self._weights)
        weights = params[:n_weights]
        grad, grads = _pack([np.zeros_like(p) for p in layers])
        grad_weights = grad[:n_weights]
        adam = _Adam(params, self.learning_rate)

        n = len(X)
        batch = min(self.batch_size, n)
        rows = np.arange(batch)
        best_loss = np.inf
        stale = 0
        self.loss_curve_ = []
        for _epoch in range(epochs):
            order = rng.permutation(n)
            X_epoch = X[order]
            target_epoch = target[order]
            epoch_loss = 0.0
            for start in range(0, n, batch):
                acts = self._forward(X_epoch[start : start + batch])
                delta = acts[-1]
                size = len(delta)
                epoch_loss += self._output_delta(
                    delta, target_epoch[start : start + batch], rows[:size]
                )
                for i in range(depth - 1, -1, -1):
                    np.matmul(acts[i].T, delta, out=grads[i])
                    np.add.reduce(delta, axis=0, out=grads[depth + i])
                    if i > 0:
                        delta = delta @ self._weights[i].T
                        delta *= dact(acts[i])
                grad_weights += self.l2 * weights
                adam.update(grad)
            epoch_loss /= n
            self.loss_curve_.append(epoch_loss)
            if epoch_loss < best_loss - self.tol:
                best_loss = epoch_loss
                stale = 0
            else:
                stale += 1
                if stale >= self.patience:
                    break


class MLPClassifier(_MLP, Classifier):
    """Multi-layer perceptron with softmax output.

    Args:
        hidden_layers: sizes of the hidden layers.
        activation: ``"tanh"`` (paper-era default) or ``"relu"``.
        learning_rate: Adam step size (finite, > 0).
        epochs: maximum training epochs.
        batch_size: mini-batch size (clamped to the dataset).
        l2: weight-decay coefficient (finite, >= 0).
        seed: RNG seed for init and shuffling.
        tol: early-stopping tolerance on the epoch loss (finite, >= 0).
        patience: epochs without ``tol`` improvement before stopping.
    """

    def __init__(
        self,
        hidden_layers: tuple[int, ...] = (32, 16),
        activation: str = "tanh",
        learning_rate: float = 0.01,
        epochs: int = 400,
        batch_size: int = 32,
        l2: float = 1e-4,
        seed: int = 0,
        tol: float = 1e-5,
        patience: int = 30,
    ):
        super().__init__(
            hidden_layers,
            activation,
            learning_rate,
            epochs,
            batch_size,
            l2,
            seed,
            tol,
            patience,
        )
        self.classes_: np.ndarray | None = None

    def _output(self, z: np.ndarray) -> np.ndarray:
        return _softmax(z)

    def _output_delta(
        self, out: np.ndarray, target: np.ndarray, rows: np.ndarray
    ) -> float:
        # Cross-entropy of the softmax probabilities, then its gradient
        # (probabilities minus the one-hot targets) over the batch size.
        picked = out[rows, target]
        picked += 1e-12
        loss = -float(np.add.reduce(np.log(picked, out=picked)))
        out[rows, target] -= 1.0
        out /= len(target)
        return loss

    # -- training ------------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "MLPClassifier":
        X, y = check_Xy(X, y)
        assert y is not None
        self.classes_, y_idx = np.unique(y, return_inverse=True)
        n_classes = len(self.classes_)
        rng = np.random.default_rng(self.seed)
        self._init_layers([X.shape[1], *self.hidden_layers, n_classes], rng)

        if n_classes == 1:
            # Degenerate single-class training set.
            self.loss_curve_ = [0.0]
            return self

        self._train_loop(X, y_idx, self.epochs, rng)
        return self

    def continue_fit(
        self, X: np.ndarray, y: np.ndarray, epochs: int | None = None
    ) -> "MLPClassifier":
        """Warm start: keep the current weights, run more Adam epochs.

        The online refit path: a handful of new training records should
        nudge the converged network, not re-learn it from random
        initialization.  The labels must all be covered by the fitted
        ``classes_`` — a genuinely new label changes the output layer
        shape, which requires a full :meth:`fit` (raises ValueError).
        ``epochs`` (default: the constructor's) must be >= 1.
        """
        if self.classes_ is None or not self._weights:
            raise RuntimeError("classifier is not fitted")
        if epochs is None:
            epochs = self.epochs
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
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
        self._train_loop(X, y_idx, epochs, rng)
        return self

    def check_state(self, n_features: int) -> None:
        """Raise ValueError unless the fitted layers form one network.

        The network must take ``n_features`` inputs, pass through
        ``hidden_layers`` and end in one output per class, with a bias
        per unit.  Model files restore these arrays directly, so this
        is what stands between a damaged file and a model that loads
        but fails (or silently never predicts a class) later.
        """
        if self.classes_ is None:
            raise RuntimeError("classifier is not fitted")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        weights, biases = self._weights, self._biases
        if not len(weights) == len(biases) == len(self.hidden_layers) + 1:
            raise ValueError(
                f"{len(weights)} weight matrices and {len(biases)} bias vectors "
                f"for {len(self.hidden_layers)} hidden layers"
            )
        widths = [n_features, *self.hidden_layers, len(self.classes_)]
        for i, (W, b) in enumerate(zip(weights, biases)):
            expected = (widths[i], widths[i + 1])
            if W.shape != expected:
                raise ValueError(
                    f"layer {i} weights have shape {W.shape}, expected {expected} "
                    f"({n_features} features, hidden layers {self.hidden_layers}, "
                    f"{len(self.classes_)} classes)"
                )
            if b.shape != expected[1:]:
                raise ValueError(
                    f"layer {i} bias has shape {b.shape}, expected {expected[1:]}"
                )

    # -- inference -------------------------------------------------------------

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class probabilities (columns ordered like ``classes_``)."""
        if self.classes_ is None:
            raise RuntimeError("classifier is not fitted")
        X, _ = check_Xy(X)
        if len(self.classes_) == 1:
            return np.ones((len(X), 1))
        return self._forward(X)[-1]

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.classes_ is None:
            raise RuntimeError("classifier is not fitted")
        if len(self.classes_) == 1:
            X, _ = check_Xy(X)
            return np.full(len(X), self.classes_[0])
        probs = self.predict_proba(X)
        return self.classes_[np.argmax(probs, axis=1)]


class MLPRegressor(_MLP):
    """Multi-layer perceptron for scalar regression (MSE loss).

    Used by the scorer-style partitioning model, which regresses the
    (log) execution time of a candidate partitioning from the combined
    program features plus the candidate's shares, then picks the argmin
    over the whole partition space — sidestepping the classifier's
    inability to predict labels absent from the training set.
    Hyperparameters are checked as for :class:`MLPClassifier`.
    """

    def __init__(
        self,
        hidden_layers: tuple[int, ...] = (64, 32),
        activation: str = "tanh",
        learning_rate: float = 0.005,
        epochs: int = 150,
        batch_size: int = 256,
        l2: float = 1e-5,
        seed: int = 0,
        tol: float = 1e-6,
        patience: int = 20,
    ):
        super().__init__(
            hidden_layers,
            activation,
            learning_rate,
            epochs,
            batch_size,
            l2,
            seed,
            tol,
            patience,
        )
        self._y_mean = 0.0
        self._y_scale = 1.0
        self._fitted = False

    def _output(self, z: np.ndarray) -> np.ndarray:
        return z  # identity output layer

    def _output_delta(
        self, out: np.ndarray, target: np.ndarray, rows: np.ndarray
    ) -> float:
        # Squared error, then its gradient (the error over the batch size).
        err = out[:, 0]
        err -= target
        loss = float(err @ err)
        err /= len(target)
        return loss

    def fit(self, X: np.ndarray, y: np.ndarray) -> "MLPRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or y.ndim != 1 or len(X) != len(y):
            raise ValueError("X must be (n, d) and y must be (n,)")
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ValueError("non-finite training data")
        # Standardize the target for stable optimization.
        self._y_mean = float(y.mean())
        self._y_scale = float(y.std()) or 1.0
        yz = (y - self._y_mean) / self._y_scale

        rng = np.random.default_rng(self.seed)
        self._init_layers([X.shape[1], *self.hidden_layers, 1], rng)
        self._train_loop(X, yz, self.epochs, rng)
        self._fitted = True
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("regressor is not fitted")
        X = np.asarray(X, dtype=np.float64)
        z = self._forward(X)[-1][:, 0]
        return z * self._y_scale + self._y_mean

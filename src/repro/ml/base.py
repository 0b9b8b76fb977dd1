"""Estimator interface and metrics for the from-scratch ML layer.

No scikit-learn is available offline, so the model family the paper's
framework relies on is implemented here directly on NumPy.  The API
deliberately mirrors the fit/predict convention so the training pipeline
stays readable.
"""

from __future__ import annotations

import abc
import numpy as np

__all__ = [
    "Classifier",
    "accuracy",
    "check_Xy",
    "majority_class",
    "MajorityClassifier",
]


def check_Xy(
    X: np.ndarray, y: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Validate and canonicalize a feature matrix (and labels)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("X contains NaN or infinite values")
    if y is None:
        return X, None
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"y must be 1-D, got shape {y.shape}")
    if len(y) != len(X):
        raise ValueError(f"X has {len(X)} rows but y has {len(y)}")
    if len(y) == 0:
        raise ValueError("empty training set")
    return X, y


class Classifier(abc.ABC):
    """Minimal classifier interface."""

    @abc.abstractmethod
    def fit(self, X: np.ndarray, y: np.ndarray) -> "Classifier":
        """Train on features X (n_samples × n_features) and labels y."""

    @abc.abstractmethod
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict a label for each row of X."""

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean accuracy on (X, y)."""
        return accuracy(np.asarray(y), self.predict(X))


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of exact label matches."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError("shape mismatch between y_true and y_pred")
    if y_true.size == 0:
        raise ValueError("empty label arrays")
    return float(np.mean(y_true == y_pred))


def majority_class(y: np.ndarray):
    """Most frequent label (ties broken toward the smaller label).

    Works for integer and string labels alike (partitioning labels are
    strings such as ``"70/20/10"``).
    """
    values, counts = np.unique(np.asarray(y), return_counts=True)
    return values[np.argmax(counts)]


class MajorityClassifier(Classifier):
    """Predicts the most frequent training label — the sanity baseline.

    Any learned partitioning model must clearly beat this to demonstrate
    that the features carry signal.
    """

    def __init__(self) -> None:
        self._label = None
        self._fitted = False

    def fit(self, X: np.ndarray, y: np.ndarray) -> "MajorityClassifier":
        _, y = check_Xy(X, y)
        assert y is not None
        self._label = majority_class(y)
        self._fitted = True
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("classifier is not fitted")
        X, _ = check_Xy(X)
        return np.full(len(X), self._label)

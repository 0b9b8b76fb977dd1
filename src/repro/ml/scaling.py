"""Feature scaling.

Program features span many orders of magnitude (2 branches vs 2²⁴ work
items), so both the MLP and kNN require normalization.  The trainer
applies a log transform to count-like features *before* scaling; the
scaler handles the affine part.
"""

from __future__ import annotations

import numpy as np

from .base import check_Xy

__all__ = ["StandardScaler"]


class StandardScaler:
    """Zero-mean, unit-variance scaling with degenerate-column guards."""

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "StandardScaler":
        X, _ = check_Xy(X)
        self.mean_ = X.mean(axis=0)
        std = X.std(axis=0)
        std[std == 0.0] = 1.0  # constant columns pass through unchanged
        self.scale_ = std
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("scaler is not fitted")
        X, _ = check_Xy(X)
        if X.shape[1] != self.mean_.shape[0]:
            raise ValueError(
                f"expected {self.mean_.shape[0]} features, got {X.shape[1]}"
            )
        return (X - self.mean_) / self.scale_

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)

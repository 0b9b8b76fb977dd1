"""Tests for the feature scaler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.ml import StandardScaler


class TestStandardScaler:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        X = rng.normal(5.0, 3.0, size=(200, 4))
        Z = StandardScaler().fit_transform(X)
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(Z.std(axis=0), 1.0, atol=1e-9)

    def test_constant_column_passthrough(self):
        X = np.ones((10, 2))
        X[:, 1] = np.arange(10)
        Z = StandardScaler().fit_transform(X)
        assert np.allclose(Z[:, 0], 0.0)

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.zeros((2, 2)))

    def test_feature_count_checked(self):
        sc = StandardScaler().fit(np.zeros((5, 3)))
        with pytest.raises(ValueError):
            sc.transform(np.zeros((5, 4)))

    @given(
        arrays(
            np.float64,
            (17, 3),
            elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_property_inverse_round_trip(self, X):
        # transform is the affine map of the fitted statistics, so
        # undoing it by hand recovers X (constant columns included).
        sc = StandardScaler().fit(X)
        Z = sc.transform(X)
        back = Z * sc.scale_ + sc.mean_
        assert np.allclose(back, X, atol=1e-6 * (1 + np.abs(X).max()))

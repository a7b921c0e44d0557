"""Fit metrics: MSE and per-component VAF."""

import numpy as np
import pytest

from ffest import mse, vaf_components
from ffest.errors import UndefinedVafError


class TestMse:
    def test_exact_match_is_zero(self):
        y = np.arange(6.0).reshape(3, 2)
        assert mse(y, y) == 0.0

    def test_row_norm_average(self):
        y = np.zeros((2, 2))
        yhat = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert mse(y, yhat) == pytest.approx(2.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros((3, 1)), np.zeros((4, 1)))


class TestVaf:
    def test_perfect_prediction(self):
        y = np.random.default_rng(1).standard_normal((100, 2))
        assert np.allclose(vaf_components(y, y), [100.0, 100.0])

    def test_zero_prediction(self):
        y = np.random.default_rng(2).standard_normal((100, 1))
        v = vaf_components(y, np.zeros_like(y))
        assert 0.0 <= v[0] < 10.0

    def test_clipped_at_zero(self):
        y = np.random.default_rng(3).standard_normal((100, 1))
        v = vaf_components(y, -5.0 * y)
        assert v[0] == 0.0

    def test_constant_signal_undefined(self):
        with pytest.raises(UndefinedVafError):
            vaf_components(np.ones((10, 1)), np.zeros((10, 1)))


"""Fit metrics: mean squared error and variance accounted for."""

import numpy as np

from .errors import UndefinedVafError

__all__ = ["mse", "vaf_components"]


def _pair(y, yhat):
    y = np.atleast_2d(np.asarray(y, dtype=float))
    yhat = np.atleast_2d(np.asarray(yhat, dtype=float))
    if y.shape != yhat.shape:
        raise ValueError(f"shape mismatch: y {y.shape}, yhat {yhat.shape}")
    if y.shape[0] < 1:
        raise ValueError("need at least one sample")
    return y, yhat


def mse(y, yhat):
    """Mean over time of the squared 2-norm of the residual row."""
    y, yhat = _pair(y, yhat)
    r = y - yhat
    return float(np.mean(np.sum(r * r, axis=1)))


def vaf_components(y, yhat):
    """Per-component 100 * max{0, 1 - var(y_i - yhat_i)/var(y_i)}."""
    y, yhat = _pair(y, yhat)
    var_y = np.var(y, axis=0)
    for i, v in enumerate(var_y):
        if v <= 0.0:
            raise UndefinedVafError(f"component {i + 1} of y has zero variance")
    var_r = np.var(y - yhat, axis=0)
    return np.maximum(0.0, 1.0 - var_r / var_y) * 100.0


"""Seeded Gaussian trajectory generation and innovation diagnostics.

Reproducibility contract: the generator is numpy's PCG64 seeded through
``SeedSequence(entropy=seed)``; trajectory ``i`` of a batch uses
``SeedSequence(entropy=seed, spawn_key=(i,))``. Same (model, config) in,
bit-identical trajectory out, on any platform.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (FfestError, IndefiniteCovarianceError, ModelFormatError,
                     ValidationError)
from .estimator import compute_d0, joint_one_step_prediction
from .matkernel import solve_discrete_lyapunov
from .models import InnovationJointModel, StateSpaceModel, Trajectory

__all__ = [
    "SimConfig",
    "simulate",
    "trajectory_rng",
    "innovation_diagnostics",
    "DiagnosticsReport",
    "save_trajectory",
    "load_trajectory",
]

LOW_SAMPLE_N = 1000
_MAX_LAG = 20        # innovation autocorrelation lags 1.._MAX_LAG
_STATE_MAX_LAG = 10  # innovation-state correlation lags 0.._STATE_MAX_LAG


@dataclass
class SimConfig:
    """Sample count, seed and initialization mode.

    ``init`` is "stationary" (draw x(0) from the stationary state
    covariance), "zero", or an explicit state vector.
    """

    N: int
    seed: int = 0
    init: object = "stationary"

    def __post_init__(self):
        if self.N < 1:
            raise ValidationError(f"N must be >= 1, got {self.N}")


def trajectory_rng(seed, index=None):
    """Deterministic per-trajectory generator; index selects a batch member.

    ``index`` may be an int or a tuple of ints (hierarchical batch keys).
    """
    if index is None:
        ss = np.random.SeedSequence(entropy=seed)
    else:
        key = tuple(index) if isinstance(index, (tuple, list)) else (index,)
        ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.default_rng(ss)


def _noise_factor(Q):
    """Symmetric-factor transform: L with L L^T = Q (PSD fallback)."""
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    try:
        return np.linalg.cholesky(Q)
    except np.linalg.LinAlgError:
        pass
    lam, V = np.linalg.eigh(0.5 * (Q + Q.T))
    if np.min(lam) < -1e-8 * (1.0 + np.max(np.abs(lam))):
        raise IndefiniteCovarianceError(
            f"noise covariance is indefinite (eigenvalue {np.min(lam):.3g})"
        )
    return V @ np.diag(np.sqrt(np.clip(lam, 0.0, None)))


def simulate(model, cfg: SimConfig, rng=None) -> Trajectory:
    """Generate a seeded Gaussian trajectory from either model form.

    Exports the state path and the noise draws. For an innovation model the
    exported ``e`` is the (p+q)-dimensional innovation; for a driven model
    it is the m-dimensional normalized input noise.
    """
    if rng is None:
        rng = trajectory_rng(cfg.seed)
    if isinstance(model, InnovationJointModel):
        A, C, D = model.A, model.C, np.eye(model.p + model.q)
        G = model.K  # state noise enters through the gain
        L = _noise_factor(model.Q)
        state_noise_cov = model.K @ model.Q @ model.K.T
    elif isinstance(model, StateSpaceModel):
        A, C, D = model.A, model.C, model.D
        G = model.B
        L = np.eye(model.m)
        state_noise_cov = model.B @ model.B.T
    else:
        raise TypeError(f"cannot simulate {type(model).__name__}")

    n = A.shape[0]
    N, p = cfg.N, model.p
    noise_dim = L.shape[0]
    e = rng.standard_normal((N, noise_dim)) @ L.T

    if isinstance(cfg.init, str) and cfg.init == "stationary":
        P = solve_discrete_lyapunov(A, state_noise_cov)
        x0 = _noise_factor(P) @ rng.standard_normal(n)
    elif isinstance(cfg.init, str) and cfg.init == "zero":
        x0 = np.zeros(n)
    else:
        x0 = np.asarray(cfg.init, dtype=float).reshape(n)

    X = np.zeros((N, n))
    Z = np.zeros((N, model.p + model.q))
    x = x0
    for t in range(N):
        X[t] = x
        Z[t] = C @ x + D @ e[t]
        x = A @ x + G @ e[t]

    return Trajectory(y=Z[:, :p], w=Z[:, p:], x=X, e=e)


@dataclass
class DiagnosticsReport:
    """Whiteness/orthogonality check results with +-3/sqrt(N) bands."""

    band: float
    e_autocorr: np.ndarray          # lags 1..20, max |corr| per lag
    e_state_corr: np.ndarray        # lags 0..10, max |corr| per lag
    whiteness_ok: bool
    state_orthogonality_ok: bool
    es_identity_residual: float | None
    low_sample_warning: bool
    notes: list = field(default_factory=list)

    @property
    def ok(self):
        return self.whiteness_ok and self.state_orthogonality_ok


def _max_crosscorr(a, b):
    """Largest |correlation coefficient| between columns of a and b."""
    a = a - a.mean(axis=0)
    b = b - b.mean(axis=0)
    sa = a.std(axis=0)
    sb = b.std(axis=0)
    sa[sa == 0] = 1.0
    sb[sb == 0] = 1.0
    corr = (a.T @ b) / (a.shape[0] * np.outer(sa, sb))
    return float(np.max(np.abs(corr))) if corr.size else 0.0


def innovation_diagnostics(m: InnovationJointModel,
                           traj: Trajectory) -> DiagnosticsReport:
    """Empirical whiteness of the innovations and orthogonality to the state.

    Also reports the residual of the identity y - yhat = e1 - D0 e2, with
    yhat the joint one-step prediction of ``m`` as given (no projection),
    filtered from the true initial state; it holds for any joint model.
    """
    if traj.e is None or traj.x is None or not traj.N:
        raise ValidationError("diagnostics need samples with x and e")
    e, x = traj.e, traj.x
    N = traj.N
    band = 3.0 / np.sqrt(N)

    e_auto = np.zeros(_MAX_LAG)
    for k in range(1, _MAX_LAG + 1):
        e_auto[k - 1] = _max_crosscorr(e[k:], e[:-k]) if k < N else 0.0
    ex = np.zeros(_STATE_MAX_LAG + 1)
    for k in range(_STATE_MAX_LAG + 1):
        ex[k] = _max_crosscorr(e[k:], x[: N - k]) if k < N else 0.0

    es_resid = None
    notes = []
    try:
        D0 = compute_d0(m.Q[: m.p, m.p :], m.Q[m.p :, m.p :])
        yhat = joint_one_step_prediction(m, traj, x0=x[0])
        es_from_e = e[:, : m.p] - e[:, m.p :] @ D0.T
        skip = min(100, N // 2)  # < N, so the tail is never empty
        es_resid = float(np.max(np.abs((traj.y - yhat) - es_from_e)[skip:]))
    except (FfestError, ValueError, np.linalg.LinAlgError) as exc:
        # report-style: never raise from part (c)
        notes.append(f"es identity not evaluated: {exc}")

    low = N < LOW_SAMPLE_N
    if low:
        notes.append(
            f"low sample count N={N}: bands widen to +-{band:.3g}"
        )
    return DiagnosticsReport(
        band=band,
        e_autocorr=e_auto,
        e_state_corr=ex,
        whiteness_ok=bool(np.all(e_auto <= band)),
        state_orthogonality_ok=bool(np.all(ex <= band)),
        es_identity_residual=es_resid,
        low_sample_warning=low,
        notes=notes,
    )


# --- trajectory CSV -------------------------------------------------------

def save_trajectory(traj: Trajectory, path):
    """Write `t,y1..,w1..[,x..,e..]` rows with 17 significant digits."""
    cols = ["t"]
    cols += [f"y{i+1}" for i in range(traj.y.shape[1])]
    cols += [f"w{i+1}" for i in range(traj.w.shape[1])]
    blocks = [np.arange(traj.N), traj.y, traj.w]
    if traj.x is not None:
        cols += [f"x{i+1}" for i in range(traj.x.shape[1])]
        blocks.append(traj.x)
    if traj.e is not None:
        cols += [f"e{i+1}" for i in range(traj.e.shape[1])]
        blocks.append(traj.e)
    np.savetxt(path, np.column_stack(blocks), delimiter=",",
               fmt=["%d"] + ["%.17g"] * (len(cols) - 1),
               header=",".join(cols), comments="")


def load_trajectory(path) -> Trajectory:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    if not header or header[0] != "t":
        raise ModelFormatError(f"{path}: first column must be 't'")

    def count(prefix):
        return sum(1 for c in header if c.startswith(prefix) and c[1:].isdigit())

    p, q = count("y"), count("w")
    nx, ne = count("x"), count("e")
    expected = ["t"]
    expected += [f"y{i+1}" for i in range(p)]
    expected += [f"w{i+1}" for i in range(q)]
    expected += [f"x{i+1}" for i in range(nx)]
    expected += [f"e{i+1}" for i in range(ne)]
    if header != expected:
        raise ModelFormatError(f"{path}: unexpected header {header}")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # empty body
            data = np.loadtxt(path, delimiter=",", skiprows=1,
                              comments=None, ndmin=2)
    except (ValueError, UserWarning) as exc:
        raise ModelFormatError(f"{path}: non-numeric value, ragged rows or "
                               f"no rows ({exc})") from exc
    if data.shape[1] != len(expected):
        raise ModelFormatError(f"{path}: ragged rows")
    o = 1
    y = data[:, o : o + p]; o += p
    w = data[:, o : o + q]; o += q
    x = data[:, o : o + nx] if nx else None; o += nx
    e = data[:, o : o + ne] if ne else None
    return Trajectory(y=y, w=w, x=x, e=e)

"""Synthesis of the minimum-error-variance estimator and causal filtering.

The estimator of y from past/present w is assembled from the triangular
blocks as

    Atil = [[A11, A12 - (K12 + K11 D0) C22], [0, A22 - K22 C22]]
    Ktil = [K12 + K11 D0; K22]
    Ctil = [C11, C12 - D0 C22],        D0 = Q12 Q22^-1

with output yhat = Ctil xhat + D0 w (plus sign on the direct term).
"""

import numpy as np
from scipy.signal import lfilter

from .errors import IndefiniteCovarianceError
from .models import (EstimatorModel, InnovationJointModel,
                     TriangularJointModel, _upper)

__all__ = [
    "compute_d0",
    "synthesize",
    "filter_signal",
    "joint_one_step_prediction",
]


def compute_d0(Q12, Q22):
    """Static gain mapping the input innovation to the direct correction."""
    Q12 = np.atleast_2d(np.asarray(Q12, dtype=float))
    Q22 = np.atleast_2d(np.asarray(Q22, dtype=float))
    if Q22.size:
        lam_min = float(np.min(np.linalg.eigvalsh(0.5 * (Q22 + Q22.T))))
        if lam_min <= 1e-12 * (1.0 + np.linalg.norm(Q22)):
            raise IndefiniteCovarianceError(
                f"input innovation covariance is singular "
                f"(smallest eigenvalue {lam_min:.3g})"
            )
    return np.linalg.solve(Q22.T, Q12.T).T


def synthesize(t: TriangularJointModel, D0=None) -> EstimatorModel:
    """Estimator of y given past/present w from triangular blocks.

    ``D0`` overrides Q12 Q22^-1; identification uses this to plug in a
    data-estimated direct gain when Q12 is not part of the model.
    """
    if D0 is None:
        D0 = compute_d0(t.Q12, t.Q22)
    else:
        D0 = np.atleast_2d(np.asarray(D0, dtype=float))
    KD = t.K12 + t.K11 @ D0
    Atil = _upper(t.A11, t.A12 - KD @ t.C22, t.A22 - t.K22 @ t.C22)
    Ktil = np.vstack([KD, t.K22])
    Ctil = np.hstack([t.C11, t.C12 - D0 @ t.C22])
    return EstimatorModel(Atil=Atil, Ktil=Ktil, Ctil=Ctil, D0=D0)


def _state_path(A, B, u, x0=None):
    """States x(0..N-1) of x+ = A x + B u(t), started from x0 (default 0).

    Computed through per-mode first-order recursions in the eigenbasis
    (C-speed via ``lfilter``) on the one-step-shifted modal input, whose
    first sample is the modal initial state; falls back to the plain time
    loop when A is too far from diagonalizable.
    """
    N = u.shape[0]
    n = A.shape[0]
    try:
        lam, W = np.linalg.eig(A)
        cond = np.linalg.cond(W)
        if np.isfinite(cond) and cond < 1e8:
            s = np.zeros((N, n), dtype=complex)
            s[1:] = (u @ np.linalg.solve(W, B.astype(complex)).T)[:-1]
            if x0 is not None and N:
                s[0] = np.linalg.solve(
                    W, np.asarray(x0, dtype=complex).reshape(n))
            for i in range(n):
                s[:, i] = lfilter([1.0], [1.0, -lam[i]], s[:, i])
            return (s @ W.T).real
    except np.linalg.LinAlgError:
        pass
    return _state_loop(A, B, u, x0)


def _state_loop(A, B, u, x0=None):
    """States x(0..N-1) of x+ = A x + B u(t) by the plain time loop."""
    N, n = u.shape[0], A.shape[0]
    x = np.zeros((N, n))
    v = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).reshape(n)
    for t in range(N):
        x[t] = v
        v = A @ v + B @ u[t]
    return x


def filter_signal(e: EstimatorModel, w, x0=None):
    """Run the causal recursion xhat+ = Atil xhat + Ktil w over a signal.

    Returns the N x p prediction yhat(t) = Ctil xhat(t) + D0 w(t), with
    xhat(0) = x0 (default 0).
    """
    w = np.atleast_2d(np.asarray(w, dtype=float))
    if w.shape[1] != e.q:
        raise ValueError(f"w has {w.shape[1]} columns, estimator expects {e.q}")
    return _filter_states(e, w, x0)[0]


def _filter_states(e: EstimatorModel, w, x0=None, X=None):
    """:func:`filter_signal` on a checked N x q float ``w``, keeping the
    states: returns ``(yhat, X)`` with X the N x n states xhat(0..N-1).
    A given ``X`` is taken as the states of ``e`` on ``w`` and not
    recomputed; yhat is then formed by the same arithmetic."""
    yhat = w @ e.D0.T
    if not e.n:
        return yhat, np.zeros((w.shape[0], 0))
    if X is None:
        X = _state_path(e.Atil, e.Ktil, w, x0)
    yhat += X @ e.Ctil.T
    return yhat, X


def joint_one_step_prediction(m: InnovationJointModel | TriangularJointModel,
                              traj, x0=None):
    """Best one-step prediction of y from the joint past plus current w.

    Runs the joint innovation filter x+ = (A - K C) x + K z of any joint
    innovation model over the stacked observations z = [y; w] and returns

        yhat(t) = C_y x(t) + D0 (w(t) - C_w x(t)),   D0 = Q12 Q22^-1.

    Started from the true initial state this reproduces the state exactly,
    and y - yhat equals e1 - D0 e2 (the innovation of the stochastic part of
    y) to machine precision; no triangular form is needed.
    """
    A, K, C, Q, p = m.A, m.K, m.C, m.Q, m.p
    D0 = compute_d0(Q[:p, p:], Q[p:, p:])
    X = _state_path(A - K @ C, K, np.hstack([traj.y, traj.w]), x0)
    return X @ C[:p].T + (traj.w - X @ C[p:].T) @ D0.T

"""Synthesis of the minimum-error-variance estimator and causal filtering.

The estimator of y from past/present w is assembled from the triangular
blocks as

    Atil = [[A11, A12 - (K12 + K11 D0) C22], [0, A22 - K22 C22]]
    Ktil = [K12 + K11 D0; K22]
    Ctil = [C11, C12 - D0 C22],        D0 = Q12 Q22^-1

with output yhat = Ctil xhat + D0 w (plus sign on the direct term).
"""

from functools import cache

import numpy as np

from .errors import IndefiniteCovarianceError
from .models import (EstimatorModel, InnovationJointModel,
                     TriangularJointModel, _upper)

__all__ = [
    "compute_d0",
    "synthesize",
    "filter_signal",
    "joint_one_step_prediction",
]


@cache
def _linear_filter():
    """The C routine ``lfilter`` ends in for a two-coefficient ``a``,
    imported on first use, since ``scipy.signal`` costs most of the import
    time of the package; called directly it skips lfilter's per-call
    argument handling, with the same bits. Public ``lfilter``, which takes
    the same positional ``(b, a, x, axis)``, stands in where scipy no
    longer has it."""
    try:
        from scipy.signal._sigtools import _linear_filter as routine
    except ImportError:
        from scipy.signal import lfilter as routine
    return routine


def compute_d0(Q12, Q22):
    """Static gain mapping the input innovation to the direct correction;
    leading axes of Q12 and Q22 stack."""
    Q12 = np.atleast_2d(np.asarray(Q12, dtype=float))
    Q22 = np.atleast_2d(np.asarray(Q22, dtype=float))
    Q22t = Q22.swapaxes(-1, -2)
    if Q22.size:
        lam_min = np.min(np.linalg.eigvalsh(0.5 * (Q22 + Q22t)), axis=-1)
        scale = 1.0 + np.linalg.norm(Q22, axis=(-2, -1))
        if not np.all(lam_min > 1e-12 * scale):
            raise IndefiniteCovarianceError(
                f"input innovation covariance is singular "
                f"(smallest eigenvalue {np.min(lam_min):.3g})"
            )
    return np.linalg.solve(Q22t, Q12.swapaxes(-1, -2)).swapaxes(-1, -2)


def synthesize(t: TriangularJointModel, D0=None) -> EstimatorModel:
    """Estimator of y given past/present w from triangular blocks.

    ``D0`` overrides Q12 Q22^-1; identification uses this to plug in a
    data-estimated direct gain when Q12 is not part of the model.
    """
    if D0 is None:
        D0 = compute_d0(t.Q12, t.Q22)
    else:
        D0 = np.atleast_2d(np.asarray(D0, dtype=float))
    return EstimatorModel(*_estimator_blocks(t, D0), D0=D0)


def _estimator_blocks(t, D0):
    """(Atil, Ktil, Ctil) of the estimator from the triangular blocks of
    ``t`` (any object with the block attributes) and the direct gain D0, by
    the formulas of the module docstring. The blocks and D0 may carry one
    leading stack axis; all or none of them do."""
    KD = t.K12 + t.K11 @ D0
    Atil = _upper(t.A11, t.A12 - KD @ t.C22, t.A22 - t.K22 @ t.C22)
    Ktil = np.concatenate([KD, t.K22], axis=-2)
    Ctil = np.concatenate([t.C11, t.C12 - D0 @ t.C22], axis=-1)
    return Atil, Ktil, Ctil


def _state_path(A, B, u, x0=None):
    """States x(0..N-1) of x+ = A x + B u(t), started from x0 (default 0)."""
    return next(_state_paths(A[None], B[None], u, x0))


def _state_paths(A, B, u, x0=None):
    """State paths of x+ = A[j] x + B[j] u(t) for each pair stacked along
    the first axis of A and B, all started from x0 (default 0); yields one
    N x n path at a time, in stack order (N x 0 when A has no states).

    The decomposition half runs on the whole stack at once: the eigenbasis
    of each A[j], its condition number, and the modal input map. numpy's
    stacked LAPACK calls give each matrix the bits it gets alone. The run
    half is per path: per-mode first-order recursions in the eigenbasis
    (scipy's C linear filter, called directly) on the one-step-shifted
    modal input, whose first sample is the modal initial state. A path
    falls back to the plain time loop when its A is too far from
    diagonalizable, or when it is alone and its decomposition fails; a
    stack of more pairs whose decomposition fails raises LinAlgError.
    """
    if not A.shape[-1]:
        yield from (np.zeros((u.shape[0], 0)) for _ in A)
        return
    try:
        lam, W = np.linalg.eig(A)
        cond = np.linalg.cond(W)
        modal = np.isfinite(cond) & (cond < 1e8)
        WB = iter(np.linalg.solve(W[modal], B[modal].astype(complex)))
    except np.linalg.LinAlgError:
        if len(A) > 1:
            raise
        modal = [False]
    for j in range(len(A)):
        yield (_modal_run(lam[j], W[j], next(WB), u, x0) if modal[j]
               else _state_loop(A[j], B[j], u, x0))


def _modal_run(lam, W, WB, u, x0=None):
    """The run half of :func:`_state_paths` for one path: eigenvalues
    ``lam``, eigenvectors ``W`` and modal input map ``WB`` = W^-1 B. Each
    mode is ``lfilter([1], [1, -lam[i]], s[:, i])`` bit for bit: the same
    coefficients and column go to the C filter that call ends in."""
    N, n = u.shape[0], lam.shape[0]
    s = np.zeros((N, n), dtype=complex)
    s[1:] = (u @ WB.T)[:-1]
    if x0 is not None and N:
        s[0] = np.linalg.solve(W, np.asarray(x0, dtype=complex).reshape(n))
    b, a = np.ones(1, dtype=complex), np.ones(2, dtype=complex)
    linear_filter = _linear_filter()
    for i in range(n):
        a[1] = -lam[i]
        s[:, i] = linear_filter(b, a, s[:, i], -1)
    return (s @ W.T).real


def _state_loop(A, B, u, x0=None):
    """States x(0..N-1) of x+ = A x + B u(t) by the plain time loop; the
    input terms B u(t) are formed up front as row-wise matvecs, which give
    each row the bits of ``B @ u[t]``."""
    N, n = u.shape[0], A.shape[0]
    x = np.zeros((N, n))
    Bu = (B @ u[..., None])[..., 0]
    v = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).reshape(n)
    for t in range(N):
        x[t] = v
        v = A @ v + Bu[t]
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


def _filter_states(e: EstimatorModel, w, x0=None):
    """:func:`filter_signal` on a checked N x q float ``w``, keeping the
    states: returns ``(yhat, X)`` with X the N x n states xhat(0..N-1)."""
    X = _state_path(e.Atil, e.Ktil, w, x0)
    return w @ e.D0.T + X @ e.Ctil.T, X


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

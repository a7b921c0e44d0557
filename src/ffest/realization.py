"""Pipeline from a driven model to triangular joint innovation form.

Steps: covariance data (Lyapunov) -> innovation gain (Riccati) -> SVD of the
observability matrix of the w-channel -> block-triangular coordinates.
"""

from dataclasses import dataclass

import numpy as np

from .errors import FeedbackViolationError, IndefiniteCovarianceError, ValidationError
from .matkernel import solve_discrete_lyapunov, solve_innovation_riccati, svd
from .models import (InnovationJointModel, StateSpaceModel,
                     TriangularJointModel, _split)

__all__ = [
    "InnovationFormResult",
    "innovation_form_details",
    "to_innovation_form",
    "observability_matrix",
    "triangularize",
    "FeedbackReport",
    "check_feedback_free",
    "markov_parameters",
]


@dataclass
class InnovationFormResult:
    """Innovation-form model together with the intermediate quantities."""

    P: np.ndarray
    Cbar: np.ndarray
    Lambda0: np.ndarray
    Pi: np.ndarray
    Delta: np.ndarray
    K: np.ndarray
    model: InnovationJointModel


def innovation_form_details(m: StateSpaceModel) -> InnovationFormResult:
    """Convert a driven model to joint forward innovation form.

    Solves P = A P A^T + B B^T, forms Cbar = C P A^T + D B^T and
    Lambda0 = C P C^T + D D^T, then the innovation Riccati equation; the
    returned model (A, K, C, Q=Delta) has the same output covariance
    sequence as the input.
    """
    P = solve_discrete_lyapunov(m.A, m.B @ m.B.T)
    Cbar = m.C @ P @ m.A.T + m.D @ m.B.T
    Lambda0 = m.C @ P @ m.C.T + m.D @ m.D.T
    try:
        Pi, Delta, K = solve_innovation_riccati(m.A, m.C, Cbar, Lambda0)
    except IndefiniteCovarianceError as exc:
        raise IndefiniteCovarianceError(
            f"degenerate output spectrum: {exc}"
        ) from exc
    model = InnovationJointModel(A=m.A, K=K, C=m.C, Q=Delta, p=m.p, q=m.q)
    return InnovationFormResult(
        P=P, Cbar=Cbar, Lambda0=Lambda0, Pi=Pi, Delta=Delta, K=K, model=model
    )


def to_innovation_form(m: StateSpaceModel) -> InnovationJointModel:
    return innovation_form_details(m).model


def observability_matrix(A, Cw):
    """Stacked [Cw; Cw A; ...; Cw A^(n-1)]."""
    A = np.asarray(A, dtype=float)
    Cw = np.atleast_2d(np.asarray(Cw, dtype=float))
    n = A.shape[0]
    if Cw.shape[1] != n:
        raise ValidationError(f"Cw has {Cw.shape[1]} columns, A is {n}x{n}")
    rows = []
    block = Cw
    for _ in range(n):
        rows.append(block)
        block = block @ A
    return np.vstack(rows) if rows else np.zeros((0, n))


def _transform(m: InnovationJointModel, rank_tol, p2=None):
    """SVD coordinates putting the w-observable states last.

    Returns (T, Abar, Kbar, Cbar, p1, p2, residual, dec) where residual is
    the largest relative Frobenius norm of the lower-left blocks that should
    vanish for a feedback-free process, and dec is the SVD of the
    observability matrix of (A, C_w), whose V is T transposed.
    """
    n = m.n
    O = observability_matrix(m.A, m.C_w)
    dec = svd(O)
    if p2 is None:
        smax = dec.S[-1] if dec.S.size else 0.0
        if smax == 0.0:
            p2 = 0
        else:
            p2 = int(np.sum(dec.S > rank_tol * smax))
    p1 = n - p2
    T = dec.V.T  # ascending order puts the near-null directions first
    Abar = T @ m.A @ T.T
    Kbar = T @ m.K
    Cbar = m.C @ T.T

    def rel(block, full):
        denom = 1.0 + np.linalg.norm(full)
        return float(np.linalg.norm(block) / denom) if block.size else 0.0

    residual = max(
        rel(Abar[p1:, :p1], Abar),
        rel(Kbar[p1:, : m.p], Kbar),
        rel(Cbar[m.p :, :p1], Cbar),
    )
    return T, Abar, Kbar, Cbar, p1, p2, residual, dec


@dataclass
class FeedbackReport:
    free: bool
    residual: float
    p1: int
    p2: int


def check_feedback_free(m: InnovationJointModel, tol_fb=1e-6) -> FeedbackReport:
    """Numeric test of the no-feedback condition.

    The process admits an exact block-triangular form iff there is no
    feedback from y to w; the report carries the lower-left residual left
    over after the SVD change of coordinates.
    """
    _, _, _, _, p1, p2, residual, _ = _transform(m, rank_tol=tol_fb)
    return FeedbackReport(free=residual <= tol_fb, residual=residual, p1=p1, p2=p2)


def triangularize(
    m: InnovationJointModel,
    rank_tol=1e-6,
    tol_fb=1e-6,
    p2=None,
) -> TriangularJointModel:
    """Block-triangularize a joint innovation model.

    ``p2`` defaults to the numerical rank of the observability matrix of
    (A, C_w) at ``rank_tol``. Sub-tolerance lower-left blocks are zeroed
    exactly, larger ones raise. ``tol_fb=np.inf`` projects: it zeroes them
    regardless of the residual (for identified models, which are generically
    not feedback-free; identification's search projects its iterates
    through :func:`_transform` directly, to reuse the SVD).
    """
    T, Abar, Kbar, Cbar, p1, p2, residual, _ = _transform(m, rank_tol, p2=p2)
    if residual > tol_fb:
        raise FeedbackViolationError(
            f"no-feedback condition violated: lower-left residual "
            f"{residual:.3g} > {tol_fb:.3g}",
            residual=residual, p1=p1, p2=p2,
        )
    return _split(Abar, Kbar, Cbar, m.Q, p1, m.p, T)


def markov_parameters(A, K, C, count):
    """Impulse-response coefficients C A^k K for k = 0..count-1."""
    A = np.asarray(A, dtype=float)
    K = np.asarray(K, dtype=float)
    C = np.asarray(C, dtype=float)
    out = np.zeros((count, C.shape[0], K.shape[1]))
    G = K
    for k in range(count):
        out[k] = C @ G
        G = A @ G
    return out

"""Pipeline from a driven model to triangular joint innovation form.

Steps: covariance data (Lyapunov) -> innovation gain (Riccati) -> SVD of the
observability matrix of the w-channel -> block-triangular coordinates.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import FeedbackViolationError, IndefiniteCovarianceError, ValidationError
from .matkernel import solve_discrete_lyapunov, solve_innovation_riccati, svd
from .models import (InnovationJointModel, StateSpaceModel,
                     TriangularJointModel, _split, _upper)

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

# Relative singular-value tolerance of the w-observability matrix: the
# default rank cut of triangularize, and the gap below which
# _projection_adjoint treats singular values as equal (without it the
# gen_full search stalls at gaps of 1e-12, where its gradient reaches 1e7).
_RANK_TOL = 1e-6
# Largest lower-left residual that still counts as feedback-free.
_TOL_FB = 1e-6


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

    Returns (tri, residual, S): ``m`` in these coordinates without its
    lower-left blocks, the largest relative Frobenius norm of those blocks
    (they vanish for a feedback-free process), and the ascending singular
    values of the observability matrix of (A, C_w), whose V^T is tri.T.
    """
    O = observability_matrix(m.A, m.C_w)
    dec = svd(O)
    if p2 is None:
        smax = dec.S[-1] if dec.S.size else 0.0
        p2 = int(np.sum(dec.S > rank_tol * smax))  # 0 when all S are 0
    p1 = m.n - p2
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
    return _split(Abar, Kbar, Cbar, m.Q, p1, m.p, T), residual, dec.S


def _projection_adjoint(m, tri, S, g):
    """Gradient over (A, K) of the joint model ``m`` given the gradient
    ``g`` over the blocks of its projection ``tri``, with ``tri`` and ``S``
    as :func:`_transform` returns them: the rows of T are the right singular
    vectors of O = [Cw; Cw A; ...; Cw A^(n-1)], ordered by the ascending S.

    The projection is invariant under rotations within the first p1 and
    within the last p2 rows of T, so it depends on T only through the
    invariant subspace of the top p2 eigenvalues s = S^2 of O^T O. That
    subspace moves by dT = Omega T with Omega_ij = (t_j dM t_i^T) /
    (s_i - s_j) for i, j in different groups, dM = d(O^T O). Pairs with a
    zero gap, singular values equal to within ``_RANK_TOL``, contribute 0.
    """
    n, p1, q, T = m.n, tri.p1, m.q, tri.T
    gAbar = _upper(g.A11, g.A12, g.A22)
    gKbar = _upper(g.K11, g.K12, g.K22)
    gCbar = _upper(g.C11, g.C12, g.C22)
    # Abar = T A T^T, Kbar = T K, Cbar = C T^T; the lower-left blocks are
    # dropped, so their gradient is zero
    gA = T.T @ gAbar @ T
    gK = T.T @ gKbar
    gT = gAbar @ T @ m.A.T + gAbar.T @ T @ m.A + gKbar @ m.K.T + gCbar.T @ m.C
    H = gT @ T.T
    cross = np.zeros((n, n), dtype=bool)
    cross[:p1, p1:] = cross[p1:, :p1] = True
    cross &= np.abs(S[:, None] - S[None, :]) > _RANK_TOL * S[-1]
    gap = S[:, None] ** 2 - S[None, :] ** 2
    E = np.zeros((n, n))
    E[cross] = H[cross] / gap[cross]
    gM = T.T @ E.T @ T
    # M = O^T O, then O = [Cw; Cw A; ...; Cw A^(n-1)] in reverse
    O = observability_matrix(m.A, m.C_w)
    gO = O @ (gM + gM.T)
    gB = np.zeros((q, n))
    for k in range(n - 1, 0, -1):
        gB = gO[k * q:(k + 1) * q] + gB @ m.A.T
        gA += O[(k - 1) * q:k * q].T @ gB
    return SimpleNamespace(A=gA, K=gK)


@dataclass
class FeedbackReport:
    free: bool
    residual: float
    p1: int
    p2: int


def check_feedback_free(m: InnovationJointModel, tol_fb=_TOL_FB) -> FeedbackReport:
    """Numeric test of the no-feedback condition.

    The process admits an exact block-triangular form iff there is no
    feedback from y to w; the report carries the lower-left residual left
    over after the SVD change of coordinates.
    """
    tri, residual, _ = _transform(m, rank_tol=tol_fb)
    return FeedbackReport(free=residual <= tol_fb, residual=residual,
                          p1=tri.p1, p2=tri.p2)


def triangularize(
    m: InnovationJointModel,
    rank_tol=_RANK_TOL,
    tol_fb=_TOL_FB,
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
    tri, residual, _ = _transform(m, rank_tol, p2=p2)
    if residual > tol_fb:
        raise FeedbackViolationError(
            f"no-feedback condition violated: lower-left residual "
            f"{residual:.3g} > {tol_fb:.3g}",
            residual=residual, p1=tri.p1, p2=tri.p2,
        )
    return tri


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

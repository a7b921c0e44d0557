"""Dense matrix kernel: SVD, discrete Lyapunov and innovation-form Riccati.

Conventions that differ from the usual library defaults:

* :func:`svd` returns singular values sorted ASCENDING, and fixes the sign
  of each right-singular-vector column so that its largest-magnitude entry
  is positive. Repeated calls are bit-identical.
* The Lyapunov solver is scipy's, ``direct`` (the Kronecker linearization
  ``(I - A (x) A) vec(P) = vec(W)``) for n <= 10, where its bits do not
  move with the BLAS thread count, and ``bilinear`` above. scipy's default
  takes ``bilinear`` at n = 10, which would move the benchmark's bits.
* The Riccati solver takes the stabilizing solution of the dual discrete
  algebraic Riccati equation from scipy's generalized Schur method
  (Arnold & Laub, Proc. IEEE 72(12), 1984); nothing is iterated.
* A non-finite input raises ``ValidationError`` before any LAPACK call.

``scipy.linalg`` loads on the first Lyapunov or Riccati solve.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    IndefiniteCovarianceError,
    SolverError,
    StabilityError,
    ValidationError,
)

__all__ = [
    "SvdResult",
    "svd",
    "spectral_radius",
    "solve_discrete_lyapunov",
    "solve_innovation_riccati",
]


@dataclass(frozen=True)
class SvdResult:
    """SVD with ascending singular values and a fixed sign convention.

    ``U @ diag(S) @ V.T`` reconstructs the input; columns of U and V are
    orthonormal; ``S`` is non-negative and non-decreasing.
    """

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray


def _check_finite(name, a):
    if not np.isfinite(a).all():
        raise ValidationError(f"{name} contains non-finite entries")


def svd(M):
    """Singular value decomposition with ascending values and fixed signs."""
    M = np.asarray(M, dtype=float)
    _check_finite("M", M)
    try:
        U, S, Vt = np.linalg.svd(M, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"SVD did not converge for a {M.shape[0]}x{M.shape[1]} matrix"
        ) from exc
    # reorder ascending; only the paired leading columns reverse, so that
    # S[j] stays matched with U[:, j] and V[:, j] for non-square inputs
    k = min(M.shape)
    U, V = U.copy(), Vt.T.copy()
    U[:, :k] = U[:, k - 1 :: -1]
    V[:, :k] = V[:, k - 1 :: -1]
    S = S[::-1].copy()
    # largest-magnitude entry of each V column made positive; U follows so
    # the product is unchanged (only paired columns may flip)
    for j in range(V.shape[1]):
        i = int(np.argmax(np.abs(V[:, j])))
        if V[i, j] < 0:
            V[:, j] = -V[:, j]
            if j < k and j < U.shape[1]:
                U[:, j] = -U[:, j]
    return SvdResult(U=U, S=S, V=V)


def spectral_radius(A):
    """Largest eigenvalue magnitude of a square matrix, as a float; of each
    matrix of a stack (leading axes), as an array."""
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or A.shape[-2] != A.shape[-1]:
        raise ValueError(f"spectral radius needs a square matrix, got {A.shape}")
    _check_finite("A", A)
    if A.shape[-1] == 0:
        rho = np.zeros(A.shape[:-2])
    else:
        try:
            rho = np.max(np.abs(np.linalg.eigvals(A)), axis=-1)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"eigenvalue iteration failed for a {A.shape[-2]}x"
                f"{A.shape[-1]} matrix") from exc
    return float(rho) if A.ndim == 2 else rho


def _require_stable(A, what="A"):
    rho = spectral_radius(A)
    if rho >= 1.0:
        raise StabilityError(
            f"{what} must be stable; spectral radius is {rho:.6g}", rho
        )
    return rho


def solve_discrete_lyapunov(A, W):
    """Solve ``P = A P A^T + W`` for stable A and symmetric PSD W."""
    A = np.asarray(A, dtype=float)
    W = np.asarray(W, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or W.shape != (n, n):
        raise ValueError(f"dimension mismatch: A {A.shape}, W {W.shape}")
    _check_finite("A", A)
    _check_finite("W", W)
    scale = 1.0 + np.linalg.norm(W)
    if not np.linalg.norm(W - W.T) <= 1e-10 * scale:
        raise ValueError("W must be symmetric")
    if n and not np.min(np.linalg.eigvalsh(0.5 * (W + W.T))) >= -1e-10 * scale:
        raise IndefiniteCovarianceError("W must be positive semidefinite")
    _require_stable(A)

    import scipy.linalg
    try:
        P = scipy.linalg.solve_discrete_lyapunov(
            A, W, method="direct" if n <= 10 else "bilinear")
    except ValueError as exc:  # an overflowed, non-finite linear system
        raise SolverError(f"Lyapunov solver failed: {exc}") from exc
    P = 0.5 * (P + P.T)

    resid = np.linalg.norm(P - A @ P @ A.T - W)
    if not resid <= 1e-9 * (1.0 + np.linalg.norm(P)):
        raise SolverError(
            f"Lyapunov residual {resid:.3g} exceeds tolerance for n={n}"
        )
    return P


def solve_innovation_riccati(A, C, Cbar, Lambda0):
    """Solve the innovation-form Riccati equation.

    Finds the symmetric PSD ``Pi`` with

        Pi = A Pi A^T + (Cbar^T - A Pi C^T) Delta^-1 (Cbar^T - A Pi C^T)^T,
        Delta = Lambda0 - C Pi C^T,

    for which ``A - K C`` is stable (``-Pi`` solves the dual DARE), and
    returns ``(Pi, Delta, K)`` with ``K = (Cbar^T - A Pi C^T) Delta^-1``.
    """
    A = np.asarray(A, dtype=float)
    C = np.asarray(C, dtype=float)
    Cbar = np.asarray(Cbar, dtype=float)
    Lambda0 = np.asarray(Lambda0, dtype=float)
    n = A.shape[0]
    for name, a in (("A", A), ("C", C), ("Cbar", Cbar), ("Lambda0", Lambda0)):
        _check_finite(name, a)
    if not (np.linalg.norm(Lambda0 - Lambda0.T)
            <= 1e-10 * (1 + np.linalg.norm(Lambda0))):
        raise ValueError("Lambda0 must be symmetric")
    _require_stable(A)
    if Lambda0.size and not np.min(np.linalg.eigvalsh(Lambda0)) > 0:
        raise IndefiniteCovarianceError("Lambda0 is not positive definite")

    Pi = np.zeros((n, n))
    if n:  # LAPACK's QZ rejects an empty pencil
        import scipy.linalg
        try:
            Pi = -scipy.linalg.solve_discrete_are(
                A.T, C.T, np.zeros((n, n)), Lambda0, s=Cbar.T)
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise ConvergenceError(f"Riccati solver failed: {exc}") from exc
        if not np.all(np.isfinite(Pi)):
            raise SolverError("Riccati solver returned non-finite entries")

    Delta = 0.5 * ((Lambda0 - C @ Pi @ C.T) + (Lambda0 - C @ Pi @ C.T).T)
    if Delta.size and not np.min(np.linalg.eigvalsh(Delta)) > 0:
        raise IndefiniteCovarianceError("Delta is not positive definite")
    G = Cbar.T - A @ Pi @ C.T
    K = np.linalg.solve(Delta.T, G.T).T

    resid = np.linalg.norm(Pi - A @ Pi @ A.T - G @ np.linalg.solve(Delta, G.T))
    if not resid <= 1e-8 * (1.0 + np.linalg.norm(Pi)):
        raise SolverError(f"Riccati residual {resid:.3g} too large")
    return Pi, Delta, K

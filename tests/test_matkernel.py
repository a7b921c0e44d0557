"""Matrix kernel: SVD conventions, Lyapunov and Riccati solvers."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.signal import place_poles

from ffest import (
    StateSpaceModel,
    assemble,
    innovation_form_details,
    markov_parameters,
    random_benchmark_system,
    solve_discrete_lyapunov,
    solve_innovation_riccati,
    spectral_radius,
    svd,
    synthesize,
    triangularize,
)
from ffest.cli import _GOLDEN_CHAIN
from ffest.errors import (
    ConvergenceError,
    IndefiniteCovarianceError,
    SolverError,
    StabilityError,
)

A_EX = np.array([[1.08, -0.23], [0.58, 0.27]])
B_EX = np.array([[-0.56, -1.4], [-0.56, -0.6]])
C_EX = np.array([[-0.25, 2.25], [1.24, -1.25]])
D_EX = np.array([[-0.14, -1.0], [0.0, -1.0]])

# independently computed solver outputs for the example system (frozen)
P_ORACLE = np.array([[11.3408, 9.2223072464], [9.2223072464, 7.9571478261]])
PI_ORACLE = np.array(
    [[11.0958117454, 8.9770260716], [8.9770260716, 7.7115733809]]
)
DELTA_ORACLE = np.array(
    [[2.002191073, 0.9943603587], [0.9943603587, 1.0000323691]]
)
K_ORACLE = np.array(
    [[0.4989046353, 0.9014869741], [0.494718551, 0.1056735267]]
)


def kron_lyapunov(A, W):
    """Reference: ``P = A P A^T + W`` as the linear system
    ``(I - A (x) A) vec(P) = vec(W)``, solved by numpy's LU."""
    n = A.shape[0]
    lhs = np.eye(n * n) - np.kron(A, A)
    return np.linalg.solve(lhs, W.reshape(-1)).reshape(n, n)


def lyapunov_residual(A, W, P):
    return np.linalg.norm(P - A @ P @ A.T - W)


def assert_matches_kron(A, W, P):
    """``P`` against :func:`kron_lyapunov`. With L(X) = X - A X A^T, the
    reference has L(ref) = W + R, so P is within ||L^-1|| (||L(P) - W|| +
    ||R||) of it, ||L^-1|| = 1 / sigma_min(I - A (x) A) in the Frobenius
    norm. A backward-stable solve leaves ||L(P) - W|| at most n^2 eps
    ((||A||^2 + 1) ||P|| + ||W||), n^2 the order of the Kronecker system;
    that allowance is doubled for the rounding of the computed R."""
    n = A.shape[0]
    ref = kron_lyapunov(A, W)
    assert P.shape == ref.shape == (n, n)
    if n == 0:
        return
    sigma_min = np.linalg.svd(np.eye(n * n) - np.kron(A, A),
                              compute_uv=False)[-1]
    scale = ((np.linalg.norm(A) ** 2 + 1.0) * np.linalg.norm(ref)
             + np.linalg.norm(W))
    allowed = 2 * n**2 * np.finfo(float).eps * scale
    bound = (lyapunov_residual(A, W, ref) + allowed) / sigma_min
    assert np.linalg.norm(P - ref) <= bound


@st.composite
def stable_lyapunov_inputs(draw):
    """A stable A (n from 0 to 12) and a PSD W. A is scaled to a drawn
    spectral radius of at most 0.95, or further down to a spectral norm of
    3: a tiny spectral radius scaled up would give A an astronomically
    large nilpotent part, where no solver is accurate."""
    n = draw(st.integers(0, 12))
    entries = st.floats(-1.0, 1.0, allow_subnormal=False)
    A = draw(hnp.arrays(float, (n, n), elements=entries))
    G = draw(hnp.arrays(float, (n, n), elements=entries))
    rho = spectral_radius(A)
    if rho > 0.0:
        A *= min(draw(st.floats(0.0, 0.95)) / rho, 3.0 / np.linalg.norm(A, 2))
    return A, G @ G.T


class TestSvd:
    def test_identity_singular_values(self):
        r = svd(np.eye(2))
        assert np.allclose(r.S, [1.0, 1.0])

    def test_ascending_order_on_diagonal(self):
        r = svd(np.diag([3.0, 1.0]))
        assert np.allclose(r.S, [1.0, 3.0])
        assert np.all(np.diff(r.S) >= 0)

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((5, 3))
        r = svd(M)
        recon = r.U[:, : r.S.size] @ np.diag(r.S) @ r.V[:, : r.S.size].T
        assert np.linalg.norm(recon - M) <= 1e-10

    def test_orthonormal_factors(self):
        M = np.random.default_rng(4).standard_normal((4, 4))
        r = svd(M)
        assert np.allclose(r.U.T @ r.U, np.eye(4), atol=1e-12)
        assert np.allclose(r.V.T @ r.V, np.eye(4), atol=1e-12)

    def test_sign_convention(self):
        # the largest-magnitude entry of every V column is positive
        M = np.random.default_rng(5).standard_normal((6, 4))
        r = svd(M)
        for j in range(r.V.shape[1]):
            i = int(np.argmax(np.abs(r.V[:, j])))
            assert r.V[i, j] > 0

    def test_non_finite_input_is_convergence_error(self):
        with pytest.raises(ConvergenceError,
                           match=r"^SVD did not converge for a 2x3 matrix$"):
            svd(np.full((2, 3), np.nan))

    def test_repeat_calls_bit_identical(self):
        M = np.random.default_rng(6).standard_normal((4, 4))
        r1, r2 = svd(M), svd(M)
        assert np.array_equal(r1.U, r2.U)
        assert np.array_equal(r1.S, r2.S)
        assert np.array_equal(r1.V, r2.V)


class TestSpectralRadius:
    def test_diagonal(self):
        assert spectral_radius(np.diag([0.5, -0.9])) == pytest.approx(0.9)

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            spectral_radius(np.zeros((2, 3)))

    def test_non_finite_input_is_convergence_error(self):
        with pytest.raises(ConvergenceError, match=r"^eigenvalue iteration "
                           r"failed for a 2x2 matrix$"):
            spectral_radius(np.full((2, 2), np.nan))


class TestLyapunov:
    def test_example_state_covariance(self):
        P = solve_discrete_lyapunov(A_EX, B_EX @ B_EX.T)
        assert np.allclose(P, P_ORACLE, atol=1e-6)
        assert np.allclose(P, _GOLDEN_CHAIN["P"], atol=0.01)

    def test_zero_dynamics(self):
        W = np.diag([2.0, 3.0])
        assert np.allclose(solve_discrete_lyapunov(np.zeros((2, 2)), W), W)

    def test_truncated_series_oracle(self):
        rng = np.random.default_rng(11)
        A = 0.6 * rng.standard_normal((4, 4)) / 2
        G = rng.standard_normal((4, 4))
        W = G @ G.T
        P = solve_discrete_lyapunov(A, W)
        # brute-force partial sum of A^k W A^Tk
        S = np.zeros((4, 4))
        M = np.eye(4)
        for _ in range(201):
            S += M @ W @ M.T
            M = M @ A
        assert np.allclose(P, S, atol=1e-10 * (1 + np.linalg.norm(S)))

    def test_large_dimension_bilinear_path(self):
        rng = np.random.default_rng(12)
        n = 40
        A = rng.standard_normal((n, n))
        A *= 0.8 / spectral_radius(A)
        G = rng.standard_normal((n, n))
        W = G @ G.T
        P = solve_discrete_lyapunov(A, W)
        assert np.linalg.norm(P - A @ P @ A.T - W) <= 1e-8 * (
            1 + np.linalg.norm(P)
        )

    # n = 11 is the first size on the bilinear side of the method switch
    @pytest.mark.parametrize("n", [0, 1, 2, 10, 11])
    def test_kronecker_oracle(self, n):
        rng = np.random.default_rng(n)
        A = rng.standard_normal((n, n))
        if n:
            A *= 0.9 / spectral_radius(A)
        G = rng.standard_normal((n, n))
        W = G @ G.T
        assert_matches_kron(A, W, solve_discrete_lyapunov(A, W))

    def test_benchmark_system_bits(self):
        # the stationary starts of the identification benchmark (n = 10)
        # are drawn from this P: it is scipy's direct method, symmetrized
        m = assemble(random_benchmark_system())
        A, W = m.A, m.K @ m.Q @ m.K.T
        P = scipy.linalg.solve_discrete_lyapunov(A, W, method="direct")
        assert np.array_equal(solve_discrete_lyapunov(A, W), 0.5 * (P + P.T))

    @settings(derandomize=True, deadline=None)
    @given(stable_lyapunov_inputs())
    def test_random_stable_systems(self, inputs):
        A, W = inputs
        P = solve_discrete_lyapunov(A, W)
        assert np.array_equal(P, P.T)
        assert lyapunov_residual(A, W, P) <= 1e-9 * (1.0 + np.linalg.norm(P))
        assert_matches_kron(A, W, P)

    def test_unstable_raises(self):
        with pytest.raises(StabilityError):
            solve_discrete_lyapunov(np.diag([1.01, 0.2]), np.eye(2))

    # stable (spectral radius 0.5), but A (x) A overflows
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowed_system_raises_solver_error(self):
        with pytest.raises(SolverError, match="Lyapunov solver failed"):
            solve_discrete_lyapunov(np.array([[0.5, 1e155], [0.0, -0.5]]),
                                    np.eye(2))

    def test_non_finite_solution_fails_residual_gate(self, monkeypatch):
        monkeypatch.setattr(scipy.linalg, "solve_discrete_lyapunov",
                            lambda A, W, method: np.full(A.shape, np.nan))
        with pytest.raises(SolverError, match="Lyapunov residual nan"):
            solve_discrete_lyapunov(np.diag([0.5, 0.5]), np.eye(2))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"^dimension mismatch: "
                           r"A \(2, 2\), W \(3, 3\)$"):
            solve_discrete_lyapunov(np.diag([0.5, 0.5]), np.eye(3))

    def test_asymmetric_w_rejected(self):
        with pytest.raises(ValueError):
            solve_discrete_lyapunov(
                np.diag([0.5, 0.5]), np.array([[1.0, 0.5], [0.0, 1.0]])
            )

    def test_indefinite_w_rejected(self):
        with pytest.raises(IndefiniteCovarianceError):
            solve_discrete_lyapunov(np.diag([0.5, 0.5]), np.diag([1.0, -1.0]))


class TestRiccati:
    def _chain(self):
        P = solve_discrete_lyapunov(A_EX, B_EX @ B_EX.T)
        Cbar = C_EX @ P @ A_EX.T + D_EX @ B_EX.T
        Lambda0 = C_EX @ P @ C_EX.T + D_EX @ D_EX.T
        return Cbar, Lambda0

    def test_asymmetric_lambda0_rejected(self):
        with pytest.raises(ValueError, match=r"^Lambda0 must be symmetric$"):
            solve_innovation_riccati(np.diag([0.5, 0.5]), np.eye(2),
                                     np.eye(2), np.array([[1.0, 0.5],
                                                          [0.0, 1.0]]))

    def test_non_finite_cbar_is_convergence_error(self):
        # scipy's solver rejects the non-finite input
        with pytest.raises(ConvergenceError,
                           match=r"^Riccati solver failed: "):
            solve_innovation_riccati([[0.5]], [[1.0]], [[np.nan]], [[1.0]])

    # (Cbar, Lambda0) of a scalar system with A = 0.5, C = 1 that no
    # stationary process has: the Riccati equation's stabilizing solution
    # leaves Delta indefinite, or the fixed point fails its residual gate
    def test_indefinite_delta_rejected(self):
        with pytest.raises(IndefiniteCovarianceError,
                           match=r"^Delta is not positive definite$"):
            solve_innovation_riccati([[0.5]], [[1.0]], [[-1.0]], [[0.1]])

    def test_inconsistent_spectrum_fails_residual_gate(self):
        with pytest.raises(SolverError,
                           match=r"^Riccati residual \S+ too large$"):
            solve_innovation_riccati([[0.5]], [[1.0]], [[1.0]], [[1.0]])

    def test_example_gain_and_covariance(self):
        Cbar, Lambda0 = self._chain()
        Pi, Delta, K = solve_innovation_riccati(A_EX, C_EX, Cbar, Lambda0)
        assert np.allclose(Pi, PI_ORACLE, atol=1e-6)
        assert np.allclose(Delta, DELTA_ORACLE, atol=1e-6)
        assert np.allclose(K, K_ORACLE, atol=1e-6)
        assert np.allclose(Delta, [[2.0, 1.0], [1.0, 1.0]], atol=0.02)

    def test_fixed_point_residual(self):
        Cbar, Lambda0 = self._chain()
        Pi, Delta, K = solve_innovation_riccati(A_EX, C_EX, Cbar, Lambda0)
        G = Cbar.T - A_EX @ Pi @ C_EX.T
        resid = np.linalg.norm(
            Pi - A_EX @ Pi @ A_EX.T - G @ np.linalg.solve(Delta, G.T)
        )
        assert resid <= 1e-8 * (1 + np.linalg.norm(Pi))

    def test_zero_cross_covariance(self):
        A = np.diag([0.4, -0.3])
        C = np.eye(2)
        Lambda0 = np.diag([2.0, 3.0])
        Pi, Delta, K = solve_innovation_riccati(
            A, C, np.zeros((2, 2)), Lambda0
        )
        assert np.allclose(Pi, 0.0, atol=1e-12)
        assert np.allclose(Delta, Lambda0, atol=1e-12)
        assert np.allclose(K, 0.0, atol=1e-12)

    def test_random_system_filter_is_stable(self):
        rng = np.random.default_rng(21)
        A = rng.standard_normal((3, 3))
        A *= 0.7 / spectral_radius(A)
        B = rng.standard_normal((3, 2))
        C = rng.standard_normal((2, 3))
        D = np.eye(2)
        P = solve_discrete_lyapunov(A, B @ B.T)
        Cbar = C @ P @ A.T + D @ B.T
        Lambda0 = C @ P @ C.T + D @ D.T
        Pi, Delta, K = solve_innovation_riccati(A, C, Cbar, Lambda0)
        assert spectral_radius(A - K @ C) <= 1.0 + 1e-10
        assert np.min(np.linalg.eigvalsh(Delta)) > 0

    def test_no_states(self):
        Lambda0 = np.array([[2.0, 1.0], [1.0, 1.0]])
        Pi, Delta, K = solve_innovation_riccati(
            np.zeros((0, 0)), np.zeros((2, 0)), np.zeros((2, 0)), Lambda0)
        assert Pi.shape == (0, 0) and K.shape == (0, 2)
        assert np.array_equal(Delta, Lambda0)

    def test_non_finite_dare_raises_solver_error(self, monkeypatch):
        monkeypatch.setattr(scipy.linalg, "solve_discrete_are",
                            lambda a, b, q, r, s: np.full(a.shape, np.nan))
        Cbar, Lambda0 = self._chain()
        with pytest.raises(SolverError, match="non-finite"):
            solve_innovation_riccati(A_EX, C_EX, Cbar, Lambda0)

    def test_unstable_raises(self):
        with pytest.raises(StabilityError):
            solve_innovation_riccati(
                np.diag([1.1]), np.eye(1), np.eye(1), np.eye(1)
            )

    @pytest.mark.parametrize("zero", [0.9999, 0.99999])
    def test_ma1_zero_near_unit_circle(self, zero):
        # z(t) = v(t) - zero v(t-1): driven form A = 0, B = 1, C = -zero,
        # D = 1, so P = 1; the process is its own innovation, Delta = K = 1
        A = np.zeros((1, 1))
        C = np.array([[-zero]])
        Cbar = np.array([[1.0]])
        Lambda0 = np.array([[1.0 + zero**2]])
        Pi, Delta, K = solve_innovation_riccati(A, C, Cbar, Lambda0)
        assert abs(Delta[0, 0] - 1.0) <= 1e-9
        assert abs(K[0, 0] - 1.0) <= 1e-9
        assert abs(Pi[0, 0] - 1.0) <= 1e-9

    def test_w_zero_near_unit_circle_pipeline(self):
        # feedback-free system whose w-channel innovation filter has a pole
        # at 1 - 1e-5, hidden under an orthogonal similarity
        base = random_benchmark_system(seed=7, n=4, p1=2, p2=2, p=1, q=1)
        K22 = place_poles(base.A22.T, base.C22.T,
                          [1.0 - 1e-5, 0.5]).gain_matrix.T
        t = replace(base, K22=K22)
        joint = assemble(t)
        U, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))
        L = np.linalg.cholesky(joint.Q)
        driven = StateSpaceModel(A=U @ joint.A @ U.T, B=U @ joint.K @ L,
                                 C=joint.C @ U.T, D=L, p=1, q=1)
        est = synthesize(triangularize(innovation_form_details(driven).model))
        oracle = synthesize(t)
        got = markov_parameters(est.Atil, est.Ktil, est.Ctil, 10)
        ref = markov_parameters(oracle.Atil, oracle.Ktil, oracle.Ctil, 10)
        # the larger of the zeroed blocks (tol_fb = 1e-6 over 10 steps) and
        # the Riccati residual tolerance 1e-8 times 1 / (1 - rho(A - KC))
        rho = spectral_radius(joint.A - joint.K @ joint.C)
        scale = 1.0 + max(np.max(np.abs(ref)), np.max(np.abs(oracle.D0)))
        tol = scale * max(1e-5, 1e-8 / (1.0 - rho))
        assert np.max(np.abs(got - ref)) <= tol
        assert np.max(np.abs(est.D0 - oracle.D0)) <= tol

"""Matrix kernel: SVD conventions, Lyapunov and Riccati solvers."""

from dataclasses import replace

import numpy as np
import pytest
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
    IndefiniteCovarianceError,
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

    def test_unstable_raises(self):
        with pytest.raises(StabilityError):
            solve_discrete_lyapunov(np.diag([1.01, 0.2]), np.eye(2))

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

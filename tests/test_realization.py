"""Innovation form, observability, feedback check, triangularization."""

import numpy as np
import pytest

from ffest import (
    InnovationJointModel,
    StateSpaceModel,
    assemble,
    check_feedback_free,
    innovation_form_details,
    markov_parameters,
    observability_matrix,
    solve_discrete_lyapunov,
    to_innovation_form,
    triangularize,
)
from ffest.cli import (_GOLDEN_CHAIN, _GOLDEN_TRIANGULAR,
                       example_triangular_model)
from ffest.errors import FeedbackViolationError, IndefiniteCovarianceError


def covariance_sequence(A, Pstate, C, Lambda0, Cbar, lags):
    """Output covariances Lambda_k = C A^(k-1) Cbar^T for k >= 1."""
    out = [Lambda0]
    M = np.eye(A.shape[0])
    for _ in range(lags):
        out.append(C @ M @ Cbar.T)
        M = A @ M
    return out


class TestInnovationForm:
    def test_example_intermediates(self, example_chain):
        for name, actual in (("Cbar", example_chain.Cbar),
                             ("Lambda0", example_chain.Lambda0),
                             ("Delta", example_chain.model.Q)):
            assert np.allclose(actual, _GOLDEN_CHAIN[name], atol=0.02), name

    def test_noise_through_d_only(self):
        m = StateSpaceModel(
            A=np.diag([0.5, -0.2]), B=np.zeros((2, 2)),
            C=np.ones((2, 2)), D=np.eye(2), p=1, q=1,
        )
        res = innovation_form_details(m)
        assert np.allclose(res.P, 0.0, atol=1e-12)
        assert np.allclose(res.Cbar, 0.0, atol=1e-12)
        assert np.allclose(res.Lambda0, np.eye(2), atol=1e-12)
        assert np.allclose(res.K, 0.0, atol=1e-12)
        assert np.allclose(res.model.Q, np.eye(2), atol=1e-12)

    def test_second_order_equivalence_random(self):
        rng = np.random.default_rng(31)
        A = rng.standard_normal((3, 3))
        A *= 0.7 / np.max(np.abs(np.linalg.eigvals(A)))
        m = StateSpaceModel(
            A=A, B=rng.standard_normal((3, 2)),
            C=rng.standard_normal((2, 3)),
            D=rng.standard_normal((2, 2)) + 2 * np.eye(2),
            p=1, q=1,
        )
        res = innovation_form_details(m)
        inn = res.model
        # covariance sequence of the original from its own Lyapunov solution
        orig = covariance_sequence(
            m.A, res.P, m.C, res.Lambda0, res.Cbar, lags=6
        )
        # and of the innovation model from its state Lyapunov solution
        Pp = solve_discrete_lyapunov(inn.A, inn.K @ inn.Q @ inn.K.T)
        L0 = inn.C @ Pp @ inn.C.T + inn.Q
        Cb = inn.C @ Pp @ inn.A.T + inn.Q @ inn.K.T
        new = covariance_sequence(inn.A, Pp, inn.C, L0, Cb, lags=6)
        for a, b in zip(orig, new):
            assert np.allclose(a, b, atol=1e-6)

    def test_lambda0_reproduced(self, example_chain):
        m = example_chain.model
        recon = m.C @ example_chain.Pi @ m.C.T + m.Q
        assert np.allclose(recon, example_chain.Lambda0, atol=1e-6)

    def test_to_innovation_form_shortcut(self, example_system, example_chain):
        m = to_innovation_form(example_system)
        assert np.allclose(m.K, example_chain.K)

    def test_singular_lambda0_raises(self):
        # both outputs read the same noise, so Lambda0 = D D^T is singular
        m = StateSpaceModel(
            A=np.diag([0.5, -0.2]), B=np.zeros((2, 2)),
            C=np.ones((2, 2)), D=np.array([[1.0, 0.0], [1.0, 0.0]]),
            p=1, q=1,
        )
        with pytest.raises(IndefiniteCovarianceError):
            innovation_form_details(m)


class TestObservabilityMatrix:
    def test_identity_dynamics(self):
        O = observability_matrix(np.eye(3), np.array([[1.0, 0.0, 0.0]]))
        assert O.shape == (3, 3)
        assert np.allclose(O, np.tile([1.0, 0.0, 0.0], (3, 1)))

    def test_example_near_singular(self, example_system):
        Cw = example_system.C[1:, :]
        O = observability_matrix(example_system.A, Cw)
        assert abs(np.linalg.det(O)) <= 5e-3

    def test_zero_output(self):
        O = observability_matrix(0.5 * np.eye(2), np.zeros((1, 2)))
        assert np.allclose(O, 0.0)
        assert np.linalg.matrix_rank(O) == 0


class TestCheckFeedbackFree:
    def test_example_is_free(self, example_innovation):
        report = check_feedback_free(example_innovation, tol_fb=1e-2)
        assert report.free
        assert (report.p1, report.p2) == (1, 1)

    def test_role_swap_breaks_freeness(self, example_swapped):
        assert not check_feedback_free(example_swapped, tol_fb=1e-2).free

    def test_block_diagonal_is_free(self):
        m = InnovationJointModel(
            A=np.diag([0.5, -0.3]), K=np.diag([0.4, 0.2]),
            C=np.diag([1.0, 2.0]), Q=np.eye(2), p=1, q=1,
        )
        report = check_feedback_free(m)
        assert report.free
        assert report.residual <= 1e-12


class TestTriangularize:
    def test_example_blocks_up_to_sign(self):
        # in the reference state signs, the blocks match entrywise
        t = example_triangular_model()
        for name, ref in _GOLDEN_TRIANGULAR.items():
            assert np.max(np.abs(getattr(t, name) - np.asarray(ref))) <= 0.02

    def test_exact_zeros_placed(self, example_triangular):
        m = assemble(example_triangular)
        assert np.all(m.A[1:, :1] == 0.0)
        assert np.all(m.K[1:, :1] == 0.0)
        assert np.all(m.C[1:, :1] == 0.0)

    def test_idempotent_up_to_sign(self, example_triangular):
        again = triangularize(assemble(example_triangular),
                              rank_tol=1e-2, tol_fb=1e-6)
        # second pass T is a signed permutation of the identity
        assert np.allclose(np.abs(again.T), np.eye(2), atol=1e-8)
        S = np.diag(np.sign(np.diag(again.T)))
        assert np.max(np.abs(again.A - S @ example_triangular.A @ S)) <= 1e-8

    def test_markov_parameters_nearly_preserved(self, example_innovation,
                                                example_triangular):
        # the worked example is only approximately feedback-free (rounded
        # two-decimal entries), so zeroing the sub-tolerance blocks moves the
        # impulse response at the size of that residual, not 1e-8
        t = example_triangular
        h_in = markov_parameters(example_innovation.A, example_innovation.K,
                                 example_innovation.C, 5)
        h_out = markov_parameters(t.A, t.K, t.C, 5)
        assert np.max(np.abs(h_in - h_out)) <= 0.01

    def test_markov_parameters_exactly_preserved_when_free(self):
        rng = np.random.default_rng(47)
        t0 = TriangularFactory(rng).random(p1=2, p2=2, p=1, q=1)
        Tr, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        m0 = assemble(t0)
        rotated = InnovationJointModel(
            A=Tr @ m0.A @ Tr.T, K=Tr @ m0.K, C=m0.C @ Tr.T, Q=m0.Q, p=1, q=1,
        )
        t = triangularize(rotated)
        h_in = markov_parameters(rotated.A, rotated.K, rotated.C, 9)
        h_out = markov_parameters(t.A, t.K, t.C, 9)
        assert np.max(np.abs(h_in - h_out)) <= 1e-8
        e_in = np.sort_complex(np.linalg.eigvals(rotated.A))
        e_out = np.sort_complex(np.linalg.eigvals(t.A))
        assert np.allclose(e_in, e_out, atol=1e-8)

    def test_eigenvalues_nearly_preserved(self, example_innovation,
                                          example_triangular):
        e_in = np.sort(np.linalg.eigvals(example_innovation.A))
        e_out = np.sort(np.linalg.eigvals(example_triangular.A))
        assert np.allclose(e_in, e_out, atol=0.01)

    def test_violation_raises_with_details(self, example_swapped):
        with pytest.raises(FeedbackViolationError) as exc:
            triangularize(example_swapped, rank_tol=1e-2, tol_fb=1e-2)
        assert exc.value.residual > 1e-2
        assert exc.value.p1 + exc.value.p2 == 2

    def test_project_mode_never_raises(self, example_swapped):
        t = triangularize(example_swapped, tol_fb=np.inf)
        assert t.p1 + t.p2 == 2

    def test_exactly_free_system_tiny_residual(self):
        # a rotated exactly-triangular system must come back with an
        # essentially zero lower-left residual
        rng = np.random.default_rng(41)
        t = TriangularFactory(rng).random(p1=2, p2=2, p=1, q=1)
        Tr, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        m = assemble(t)
        rotated = InnovationJointModel(
            A=Tr @ m.A @ Tr.T, K=Tr @ m.K, C=m.C @ Tr.T, Q=m.Q, p=1, q=1,
        )
        report = check_feedback_free(rotated, tol_fb=1e-6)
        assert report.free
        assert report.residual <= 1e-8


class TriangularFactory:
    """Random exactly-triangular joint models for structure tests."""

    def __init__(self, rng):
        self.rng = rng

    def random(self, p1, p2, p, q):
        from ffest import TriangularJointModel

        r = self.rng
        def stable(k):
            M = r.standard_normal((k, k))
            return 0.6 * M / max(1e-9, np.max(np.abs(np.linalg.eigvals(M))))
        G = r.standard_normal((p + q, p + q))
        Q = G @ G.T + 0.5 * np.eye(p + q)
        return TriangularJointModel(
            A11=stable(p1), A12=r.standard_normal((p1, p2)), A22=stable(p2),
            K11=r.standard_normal((p1, p)), K12=r.standard_normal((p1, q)),
            K22=r.standard_normal((p2, q)),
            C11=r.standard_normal((p, p1)), C12=r.standard_normal((p, p2)),
            C22=r.standard_normal((q, p2)),
            Q11=Q[:p, :p], Q12=Q[:p, p:], Q22=Q[p:, p:],
            T=np.eye(p1 + p2), p1=p1, p2=p2, p=p, q=q,
        )

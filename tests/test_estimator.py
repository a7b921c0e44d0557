"""Estimator synthesis, causal filtering, joint one-step prediction."""

import numpy as np
import pytest

from ffest import (
    EstimatorModel,
    InnovationJointModel,
    SimConfig,
    assemble,
    compute_d0,
    filter_signal,
    joint_one_step_prediction,
    markov_parameters,
    mse,
    simulate,
    spectral_radius,
    synthesize,
    triangularize,
)
from ffest.cli import _GOLDEN_ESTIMATOR, example_triangular_model
from ffest.errors import FeedbackViolationError, IndefiniteCovarianceError

from conftest import make_triangular

# independently computed estimator for the worked example (frozen, in the
# triangularize() output's own sign convention)
D0_ORACLE = 0.9943281732
ATIL_ORACLE = np.array([[0.8537034448, 1.6801361354], [0.0, -0.488744052]])
KTIL_ORACLE = np.array([[1.4133593754], [-0.559456536]])
CTIL_ORACLE = np.array([[1.4061001019, 3.5249506593]])


class TestComputeD0:
    def test_schur_gain(self):
        assert np.allclose(
            compute_d0([[1.0, 0.0]], [[2.0, 0.0], [0.0, 4.0]]),
            [[0.5, 0.0]],
        )

    def test_singular_q22_rejected(self):
        with pytest.raises(IndefiniteCovarianceError):
            compute_d0([[1.0]], [[0.0]])


class TestSynthesize:
    def test_example_estimator(self, example_estimator):
        e = example_estimator
        assert np.allclose(e.D0, [[D0_ORACLE]], atol=1e-6)
        assert np.allclose(e.Atil, ATIL_ORACLE, atol=1e-6)
        assert np.allclose(e.Ktil, KTIL_ORACLE, atol=1e-6)
        assert np.allclose(e.Ctil, CTIL_ORACLE, atol=1e-6)

    def test_example_matches_reference_up_to_sign(self):
        # in the reference state signs, the estimator matches entrywise
        e = synthesize(example_triangular_model())
        for name, ref in _GOLDEN_ESTIMATOR.items():
            assert np.max(np.abs(getattr(e, name) - np.asarray(ref))) <= 0.03
        assert abs(e.D0[0, 0] - 1.0) <= 0.03

    def test_decoupled_noise(self):
        t = make_triangular(K11=[[0.0]], K12=[[0.0]], Q12=[[0.0]])
        e = synthesize(t)
        assert np.allclose(e.D0, 0.0)
        assert np.allclose(e.Ktil, [[0.0], [0.4]])
        assert np.allclose(e.Ctil, [[1.0, 0.5]])
        assert np.allclose(e.Atil[0], [0.5, 0.1])

    def test_lower_right_is_w_filter(self):
        t = make_triangular()
        e = synthesize(t)
        assert np.allclose(
            e.Atil[1:, 1:], t.A22 - t.K22 @ t.C22
        )
        assert e.Atil[1, 0] == 0.0

    def test_stability(self, example_estimator):
        assert spectral_radius(example_estimator.Atil) < 1.0

    def test_eigenvalue_split(self):
        t = make_triangular()
        e = synthesize(t)
        expect = sorted(
            list(np.linalg.eigvals(t.A11))
            + list(np.linalg.eigvals(t.A22 - t.K22 @ t.C22))
        )
        assert np.allclose(sorted(np.linalg.eigvals(e.Atil)), expect)

    def test_d0_override(self):
        t = make_triangular()
        e = synthesize(t, D0=np.array([[0.0]]))
        assert np.allclose(e.D0, 0.0)
        assert np.allclose(e.Ktil, [[t.K12[0, 0]], [t.K22[0, 0]]])


class TestSynthesizeFromJoint:
    def test_violation_propagates(self, example_swapped):
        with pytest.raises(FeedbackViolationError):
            synthesize(triangularize(example_swapped, rank_tol=1e-2,
                                     tol_fb=1e-2))

    def test_similarity_invariance(self, example_innovation,
                                   example_estimator):
        m = example_innovation
        rng = np.random.default_rng(55)
        Tr, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        conj = InnovationJointModel(
            A=Tr @ m.A @ Tr.T, K=Tr @ m.K, C=m.C @ Tr.T, Q=m.Q, p=1, q=1,
        )
        e = synthesize(triangularize(conj, rank_tol=1e-2, tol_fb=1e-2))
        h1 = markov_parameters(e.Atil, e.Ktil, e.Ctil, 8)
        h2 = markov_parameters(example_estimator.Atil,
                               example_estimator.Ktil,
                               example_estimator.Ctil, 8)
        assert np.max(np.abs(h1 - h2)) <= 1e-6


class TestFilterSignal:
    def test_zero_input_zero_output(self, example_estimator):
        yhat = filter_signal(example_estimator, np.zeros((10, 1)))
        assert np.allclose(yhat, 0.0)

    def test_single_step_direct_term(self, example_estimator):
        w = np.array([[2.0]])
        yhat = filter_signal(example_estimator, w)
        assert np.allclose(yhat, example_estimator.D0 * 2.0)

    # the worked example runs the modal path; a Jordan block has no
    # eigenbasis (cond = inf), so it runs the plain loop
    @pytest.mark.parametrize("atil", [None, [[0.5, 1.0], [0.0, 0.5]]],
                             ids=["worked", "jordan"])
    def test_matches_plain_recursion(self, example_estimator, atil):
        e = example_estimator
        if atil is not None:
            e = EstimatorModel(Atil=atil, Ktil=e.Ktil, Ctil=e.Ctil, D0=e.D0)
            assert not np.linalg.cond(np.linalg.eig(e.Atil)[1]) < 1e8
        rng = np.random.default_rng(66)
        w = rng.standard_normal((300, 1))
        x0 = np.array([1.0, -2.0])
        yhat = filter_signal(e, w, x0=x0)
        x = x0.copy()
        ref = np.zeros((300, 1))
        for t in range(300):
            ref[t] = e.Ctil @ x + e.D0 @ w[t]
            x = e.Atil @ x + e.Ktil @ w[t]
        assert np.max(np.abs(yhat - ref)) <= 1e-10

    def test_initial_state_transient(self, example_estimator):
        e = example_estimator
        w = np.zeros((5, 1))
        x0 = np.array([1.0, -2.0])
        yhat = filter_signal(e, w, x0=x0)
        x = x0.copy()
        for t in range(5):
            assert np.allclose(yhat[t], e.Ctil @ x)
            x = e.Atil @ x

    def test_causality(self, example_estimator):
        # future w cannot change past predictions
        e = example_estimator
        rng = np.random.default_rng(67)
        w = rng.standard_normal((50, 1))
        w2 = w.copy()
        w2[30:] += 100.0
        y1 = filter_signal(e, w)
        y2 = filter_signal(e, w2)
        assert np.max(np.abs(y1[:30] - y2[:30])) <= 1e-10
        assert abs(y1[30, 0] - y2[30, 0]) > 1.0

    def test_mse_near_schur_floor_simple_system(self):
        # on an exactly-triangular model the residual second moment
        # approaches C11 Sigma C11' + Schur(Q); for this system with
        # C11 = 0 the floor is exactly the Schur complement 2 - 1 = 1
        t = make_triangular(C11=[[0.0]])
        m = assemble(t)
        traj = simulate(m, SimConfig(N=100_000, seed=1))
        yhat = filter_signal(synthesize(t), traj.w)
        err = mse(traj.y, yhat)
        schur = 2.0 - 1.0
        assert 0.95 * schur <= err <= 1.05 * schur


class TestJointOneStepPrediction:
    def test_innovation_identity(self):
        t = make_triangular()
        m = assemble(t)
        traj = simulate(m, SimConfig(N=2000, seed=3))
        D0 = compute_d0(t.Q12, t.Q22)
        yhat = joint_one_step_prediction(t, traj, x0=traj.x[0])
        es = traj.e[:, :1] - traj.e[:, 1:] @ D0.T
        assert np.max(np.abs((traj.y - yhat) - es)[100:]) <= 1e-6

    def test_joint_model_as_given(self):
        # the assembled joint model predicts bit for bit as its blocks do
        t = make_triangular()
        traj = simulate(assemble(t), SimConfig(N=500, seed=3))
        assert np.array_equal(
            joint_one_step_prediction(assemble(t), traj, x0=traj.x[0]),
            joint_one_step_prediction(t, traj, x0=traj.x[0]))

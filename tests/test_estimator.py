"""Estimator synthesis, causal filtering, joint one-step prediction."""

import sys

import numpy as np
import pytest
from scipy.signal import lfilter

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
import ffest.estimator
from ffest.errors import FeedbackViolationError, IndefiniteCovarianceError
from ffest.estimator import _modal_run, _state_loop

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

    def test_nan_q22_rejected(self):
        # eigvalsh returns [nan], which no comparison finds too small
        with pytest.raises(IndefiniteCovarianceError):
            compute_d0([[1.0]], [[np.nan]])


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

    def test_no_states_is_the_direct_term(self):
        # with no states the prediction is w D0', bit for bit and signed
        # zeros included, from zero and negative entries of w and D0
        e = EstimatorModel(Atil=np.zeros((0, 0)), Ktil=np.zeros((0, 3)),
                           Ctil=np.zeros((2, 0)),
                           D0=[[0.0, -0.0, 0.0], [0.5, -1.0, 0.0]])
        w = np.random.default_rng(68).standard_normal((40, 3))
        w[::3] = -0.0
        w[1::3] = -np.abs(w[1::3])
        yhat = filter_signal(e, w)
        assert yhat.shape == (40, 2)
        assert yhat.tobytes() == (w @ e.D0.T).tobytes()

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


class TestStateLoop:
    @pytest.mark.parametrize("given", [False, True], ids=["zero", "x0"])
    @pytest.mark.parametrize("N", [0, 1, 1000])
    @pytest.mark.parametrize("q", [1, 5])
    @pytest.mark.parametrize("n", [1, 10])
    def test_bit_identical_to_per_step_loop(self, n, q, N, given):
        rng = np.random.default_rng(100 * n + 10 * q + N)
        A = rng.standard_normal((n, n))
        A *= 0.9 / spectral_radius(A)
        B = rng.standard_normal((n, q))
        u = rng.standard_normal((N, q))
        x0 = rng.standard_normal(n) if given else None
        # reference: the input term formed per step, next to the update
        v = np.zeros(n) if x0 is None else x0.copy()
        ref = np.zeros((N, n))
        for t in range(N):
            ref[t] = v
            v = A @ v + B @ u[t]
        assert np.array_equal(_state_loop(A, B, u, x0), ref)


# the modes of one path: eig gives a float array when all are real
MODES = {
    "real": np.array([0.5, 0.0, -(1 - 1e-6), 1 - 1e-6]),
    "complex": np.array([0.3 + 0.9j, 0.3 - 0.9j, 0.0, 0.5,
                         (1 - 1e-6) * np.exp(0.7j)]),
}


def modal_reference(lam, W, WB, u, x0):
    """The modal run with one public ``lfilter`` call per mode: returns the
    modal input, the modal states and the state path."""
    N, n = u.shape[0], lam.shape[0]
    s = np.zeros((N, n), dtype=complex)
    s[1:] = (u @ WB.T)[:-1]
    if x0 is not None and N:
        s[0] = np.linalg.solve(W, np.asarray(x0, dtype=complex).reshape(n))
    modal_in = s.copy()
    for i in range(n):
        s[:, i] = lfilter([1.0], [1.0, -lam[i]], s[:, i])
    return modal_in, s, (s @ W.T).real


class TestModalRun:
    """The per-mode recursions keep the bits of public ``lfilter``, on the
    direct C filter and on the fallback the accessor returns without it."""

    @pytest.mark.parametrize("fallback", [False, True],
                             ids=["direct", "fallback"])
    @pytest.mark.parametrize("given", [False, True], ids=["zero", "x0"])
    @pytest.mark.parametrize("N", [0, 1, 2, 150, 1000])
    @pytest.mark.parametrize("modes", sorted(MODES))
    def test_bit_identical_to_lfilter(self, modes, N, given, fallback,
                                      monkeypatch):
        if fallback:
            # the accessor's own body, with the private module gone
            with monkeypatch.context() as m:
                m.setitem(sys.modules, "scipy.signal._sigtools", None)
                routine = ffest.estimator._linear_filter.__wrapped__()
            assert routine is lfilter
            monkeypatch.setattr(ffest.estimator, "_linear_filter",
                                lambda: routine)
        lam = MODES[modes]
        n, q = lam.shape[0], 2
        rng = np.random.default_rng(10 * N + given)
        W = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        WB = rng.standard_normal((n, q)) + 1j * rng.standard_normal((n, q))
        u = rng.standard_normal((N, q))
        x0 = rng.standard_normal(n) if given else None
        modal_in, states, ref = modal_reference(lam, W, WB, u, x0)
        got = _modal_run(lam, W, WB, u, x0)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        # each mode's states, real and imaginary parts, strided column in
        b, a = np.ones(1, dtype=complex), np.ones(2, dtype=complex)
        for i in range(n):
            a[1] = -lam[i]
            mode = ffest.estimator._linear_filter()(b, a, modal_in[:, i], -1)
            assert np.array_equal(mode.real, states[:, i].real)
            assert np.array_equal(mode.imag, states[:, i].imag)

    def test_fast_path_is_bound(self):
        # a scipy that moves its C filter fails here, not silently slower
        try:
            from scipy.signal._sigtools import _linear_filter
        except ImportError:
            pytest.skip("scipy has no scipy.signal._sigtools._linear_filter")
        assert ffest.estimator._linear_filter() is _linear_filter


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

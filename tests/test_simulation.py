"""Trajectory generation, diagnostics, CSV round-trip, determinism."""

from dataclasses import replace

import numpy as np
import pytest

from ffest import (
    SimConfig,
    Trajectory,
    assemble,
    innovation_diagnostics,
    load_trajectory,
    save_trajectory,
    simulate,
    trajectory_rng,
)
from ffest.errors import ValidationError

from conftest import make_triangular


class TestSimConfig:
    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            SimConfig(N=0)


class TestTrajectoryRng:
    def test_deterministic(self):
        a = trajectory_rng(5).standard_normal(4)
        b = trajectory_rng(5).standard_normal(4)
        assert np.array_equal(a, b)

    def test_index_streams_differ(self):
        a = trajectory_rng(5, index=0).standard_normal(4)
        b = trajectory_rng(5, index=1).standard_normal(4)
        assert not np.array_equal(a, b)

    def test_tuple_index(self):
        a = trajectory_rng(5, index=(1, 2)).standard_normal(4)
        b = trajectory_rng(5, index=(1, 2)).standard_normal(4)
        c = trajectory_rng(5, index=(2, 1)).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestSimulate:
    def test_same_seed_bit_identical(self, example_innovation):
        t1 = simulate(example_innovation, SimConfig(N=200, seed=9))
        t2 = simulate(example_innovation, SimConfig(N=200, seed=9))
        assert np.array_equal(t1.y, t2.y)
        assert np.array_equal(t1.w, t2.w)
        assert np.array_equal(t1.x, t2.x)
        assert np.array_equal(t1.e, t2.e)

    def test_output_covariance_matches_lambda0(self, example_innovation):
        traj = simulate(example_innovation, SimConfig(N=100_000, seed=2))
        Z = np.hstack([traj.y, traj.w])
        S = Z.T @ Z / traj.N
        ref = np.array([[31.64, 3.72], [3.72, 2.28]])
        assert np.linalg.norm(S - ref) / np.linalg.norm(ref) <= 0.05

    def test_innovation_covariance_matches_q(self, example_innovation):
        traj = simulate(example_innovation, SimConfig(N=100_000, seed=2))
        S = traj.e.T @ traj.e / traj.N
        ref = np.array([[2.0, 1.0], [1.0, 1.0]])
        assert np.linalg.norm(S - ref) / np.linalg.norm(ref) <= 0.05

    def test_state_recursion_exact(self, example_innovation):
        m = example_innovation
        traj = simulate(m, SimConfig(N=500, seed=4))
        lhs = traj.x[1:]
        rhs = traj.x[:-1] @ m.A.T + traj.e[:-1] @ m.K.T
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_output_equation_exact(self, example_innovation):
        m = example_innovation
        traj = simulate(m, SimConfig(N=500, seed=4))
        Z = np.hstack([traj.y, traj.w])
        assert np.max(np.abs(Z - traj.x @ m.C.T - traj.e)) <= 1e-12

    def test_sample_mean_stationary(self, example_innovation):
        m = example_innovation
        traj = simulate(m, SimConfig(N=100_000, seed=6))
        # the sample mean of an autocorrelated process has variance
        # S(0)/N with S(0) = H(1) Q H(1)^T the spectral density at zero
        # (a plain Lambda0/N band would be far too tight here)
        H1 = m.C @ np.linalg.solve(np.eye(m.n) - m.A, m.K) + np.eye(2)
        S0 = H1 @ m.Q @ H1.T
        band = 3.0 * np.sqrt(np.diag(S0) / traj.N)
        means = np.abs(np.hstack([traj.y, traj.w]).mean(axis=0))
        assert np.all(means <= band)

    def test_zero_init(self, example_innovation):
        traj = simulate(example_innovation, SimConfig(N=3, seed=1,
                                                      init="zero"))
        assert np.allclose(traj.x[0], 0.0)

    def test_given_state_init(self, example_innovation):
        traj = simulate(example_innovation,
                        SimConfig(N=3, seed=1, init=[1.0, 2.0]))
        assert np.allclose(traj.x[0], [1.0, 2.0])

    def test_driven_model_form(self, example_system):
        traj = simulate(example_system, SimConfig(N=100, seed=1))
        assert traj.y.shape == (100, 1)
        assert traj.w.shape == (100, 1)
        assert traj.e.shape == (100, 2)  # normalized input noise


class TestDiagnostics:
    def test_simulated_example_passes(self, example_innovation):
        traj = simulate(example_innovation, SimConfig(N=100_000, seed=8))
        rep = innovation_diagnostics(example_innovation, traj)
        assert rep.whiteness_ok
        assert rep.state_orthogonality_ok
        assert rep.ok
        assert not rep.low_sample_warning
        assert rep.es_identity_residual is not None
        assert rep.es_identity_residual <= 1e-10

    @pytest.mark.parametrize("model", ["example_innovation",
                                       "example_swapped"],
                             ids=["example", "swapped"])
    def test_es_identity_exact_as_given(self, request, model):
        # the identity needs no triangular form: it holds to rounding on
        # the worked example and on its role swap, which has feedback
        m = request.getfixturevalue(model)
        traj = simulate(m, SimConfig(N=5000, seed=8))
        rep = innovation_diagnostics(m, traj)
        assert rep.es_identity_residual is not None
        assert rep.es_identity_residual <= 1e-10

    def test_es_identity_exact_on_free_model(self):
        m = assemble(make_triangular())
        traj = simulate(m, SimConfig(N=5000, seed=8))
        rep = innovation_diagnostics(m, traj)
        assert rep.es_identity_residual is not None
        assert rep.es_identity_residual <= 1e-6

    @pytest.mark.parametrize("case", ["x-width", "singular-q22"])
    def test_identity_error_becomes_note(self, example_innovation, case):
        m = example_innovation
        traj = simulate(m, SimConfig(N=500, seed=8))
        if case == "x-width":  # a state one column too wide
            traj = Trajectory(y=traj.y, w=traj.w, e=traj.e,
                              x=np.hstack([traj.x, traj.x[:, :1]]))
        else:
            m = replace(m, Q=np.diag([2.0, 0.0]))
        rep = innovation_diagnostics(m, traj)
        assert rep.es_identity_residual is None
        assert any(n.startswith("es identity not evaluated")
                   for n in rep.notes)
        assert rep.e_state_corr.shape == (11,)

    def test_moving_average_noise_fails_lag_one(self, example_innovation):
        traj = simulate(example_innovation, SimConfig(N=100_000, seed=8))
        e = traj.e.copy()
        e[1:] = 0.5 * (e[1:] + e[:-1])  # lag-1 moving average
        bad = Trajectory(y=traj.y, w=traj.w, x=traj.x, e=e)
        rep = innovation_diagnostics(example_innovation, bad)
        assert not rep.whiteness_ok
        assert rep.e_autocorr[0] > rep.band

    def test_low_sample_warning_and_band(self, example_innovation):
        traj = simulate(example_innovation, SimConfig(N=100, seed=8))
        rep = innovation_diagnostics(example_innovation, traj)
        assert rep.low_sample_warning
        assert rep.band == pytest.approx(0.3)

    def test_requires_state_and_noise(self, example_innovation):
        bare = Trajectory(y=np.zeros((10, 1)), w=np.zeros((10, 1)))
        with pytest.raises(ValidationError):
            innovation_diagnostics(example_innovation, bare)

    def test_requires_samples(self, example_innovation):
        empty = Trajectory(y=np.zeros((0, 1)), w=np.zeros((0, 1)),
                           x=np.zeros((0, 2)), e=np.zeros((0, 2)))
        with pytest.raises(ValidationError):
            innovation_diagnostics(example_innovation, empty)


class TestTrajectoryCsv:
    def test_round_trip(self, example_innovation, tmp_path):
        traj = simulate(example_innovation, SimConfig(N=50, seed=3))
        path = tmp_path / "traj.csv"
        save_trajectory(traj, path)
        back = load_trajectory(path)
        assert np.array_equal(back.y, traj.y)
        assert np.array_equal(back.w, traj.w)
        assert np.array_equal(back.x, traj.x)
        assert np.array_equal(back.e, traj.e)

    def test_header_format(self, example_innovation, tmp_path):
        traj = simulate(example_innovation, SimConfig(N=5, seed=3))
        path = tmp_path / "traj.csv"
        save_trajectory(traj, path)
        header = path.read_text().splitlines()[0]
        assert header == "t,y1,w1,x1,x2,e1,e2"

    def test_bad_header_rejected(self, tmp_path):
        from ffest.errors import ModelFormatError

        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ModelFormatError):
            load_trajectory(path)

    @pytest.mark.parametrize("body", [
        "0,1.5,2\n1,abc,3\n",      # non-numeric value
        "0,1.5,2\n1,2\n",          # ragged rows
        "0,1.5,2,4\n1,2,3,5\n",    # more columns than the header
        "",                          # header only
    ], ids=["non-numeric", "ragged", "too-wide", "no-rows"])
    def test_bad_body_rejected(self, tmp_path, body):
        from ffest.errors import ModelFormatError

        path = tmp_path / "bad.csv"
        path.write_text("t,y1,w1\n" + body)
        with pytest.raises(ModelFormatError):
            load_trajectory(path)

"""Trajectory generation, diagnostics, CSV round-trip, determinism."""

import gzip
from dataclasses import replace

import numpy as np
import pytest

from ffest import (
    InnovationJointModel,
    SimConfig,
    Trajectory,
    assemble,
    innovation_diagnostics,
    load_trajectory,
    random_benchmark_system,
    save_trajectory,
    simulate,
    solve_discrete_lyapunov,
    trajectory_rng,
)
from ffest.cli import _GOLDEN_CHAIN
from ffest.errors import ModelFormatError, ValidationError
from ffest.simulation import _CSV_CHUNK_ROWS, _noise_factor

from conftest import make_triangular


class TestSimConfig:
    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            SimConfig(N=0)

    @pytest.mark.parametrize("init", ["bogus", [[1.0, 2.0], [3.0]], None],
                             ids=["unknown-mode", "ragged", "none"])
    def test_rejects_what_is_no_state(self, init):
        with pytest.raises(ValidationError, match="init"):
            SimConfig(N=5, init=init)

    def test_rejects_wrong_state_length(self):
        m = assemble(random_benchmark_system())
        with pytest.raises(ValidationError, match="2 entries.*10 states"):
            simulate(m, SimConfig(N=5, init=[1.0, 2.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_state(self, example_innovation, bad):
        with pytest.raises(ValidationError):
            simulate(example_innovation, SimConfig(N=5, init=[1.0, bad]))


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


def per_sample_simulate(model, cfg):
    """Reference: simulate as a per-sample loop that forms each output row
    next to its state update (the arithmetic of earlier releases)."""
    rng = trajectory_rng(cfg.seed)
    if isinstance(model, InnovationJointModel):
        A, C, D, G = model.A, model.C, np.eye(model.p + model.q), model.K
        L = _noise_factor(model.Q)
        state_noise_cov = model.K @ model.Q @ model.K.T
    else:
        A, C, D, G = model.A, model.C, model.D, model.B
        L = np.eye(model.m)
        state_noise_cov = model.B @ model.B.T
    n, N = A.shape[0], cfg.N
    e = rng.standard_normal((N, L.shape[0])) @ L.T
    if isinstance(cfg.init, str) and cfg.init == "stationary":
        P = solve_discrete_lyapunov(A, state_noise_cov)
        x = _noise_factor(P) @ rng.standard_normal(n)
    elif isinstance(cfg.init, str) and cfg.init == "zero":
        x = np.zeros(n)
    else:
        x = np.asarray(cfg.init, dtype=float).reshape(n)
    X = np.zeros((N, n))
    Z = np.zeros((N, model.p + model.q))
    for t in range(N):
        X[t] = x
        Z[t] = C @ x + D @ e[t]
        x = A @ x + G @ e[t]
    return Trajectory(y=Z[:, :model.p], w=Z[:, model.p:], x=X, e=e)


class TestSimulate:
    @pytest.mark.parametrize("init", ["stationary", "zero", "explicit"])
    @pytest.mark.parametrize("model", ["benchmark", "benchmark-30",
                                       "driven"])
    def test_bit_identical_to_per_sample_loop(self, example_system, model,
                                              init):
        m = {"benchmark": lambda: assemble(random_benchmark_system()),
             "benchmark-30": lambda: assemble(
                 random_benchmark_system(n=30, p1=24, p2=6)),
             "driven": lambda: example_system}[model]()
        if init == "explicit":
            init = np.linspace(-1.0, 1.0, m.A.shape[0])
        cfg = SimConfig(N=1000, seed=11, init=init)
        got, ref = simulate(m, cfg), per_sample_simulate(m, cfg)
        for name in ("x", "y", "w", "e"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), \
                name

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
        ref = np.array(_GOLDEN_CHAIN["Lambda0"])
        assert np.linalg.norm(S - ref) / np.linalg.norm(ref) <= 0.05

    def test_innovation_covariance_matches_q(self, example_innovation):
        traj = simulate(example_innovation, SimConfig(N=100_000, seed=2))
        S = traj.e.T @ traj.e / traj.N
        ref = np.array(_GOLDEN_CHAIN["Delta"])
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

    def test_singular_q_draws_in_its_range(self, example_innovation):
        # a PSD but singular Q has no Cholesky factor; its symmetric factor
        # draws innovations along the range of Q only
        v = np.array([1.0, -2.0])
        m = replace(example_innovation, Q=np.outer(v, v))
        traj = simulate(m, SimConfig(N=20_000, seed=4))
        assert np.max(np.abs(traj.e @ np.array([2.0, 1.0]))) <= 1e-12
        S = traj.e.T @ traj.e / traj.N
        assert np.linalg.norm(S - m.Q) / np.linalg.norm(m.Q) <= 0.05

    def test_indefinite_q_raises(self, example_innovation):
        from ffest.errors import IndefiniteCovarianceError

        m = replace(example_innovation, Q=np.diag([1.0, -0.5]))
        with pytest.raises(IndefiniteCovarianceError, match="indefinite"):
            simulate(m, SimConfig(N=10, seed=0))

    def test_driven_model_form(self, example_system):
        traj = simulate(example_system, SimConfig(N=100, seed=1))
        assert traj.y.shape == (100, 1)
        assert traj.w.shape == (100, 1)
        assert traj.e.shape == (100, 2)  # normalized input noise


def two_pass_crosscorr(a, b):
    """Reference: the largest |Pearson correlation| between the columns of
    a and b, each centred and scaled on its own (population std, a zero std
    counted as 1), with the masks of the zero stds."""
    a = a - a.mean(axis=0)
    b = b - b.mean(axis=0)
    sa, sb = a.std(axis=0), b.std(axis=0)
    zero = sa == 0, sb == 0
    sa[zero[0]] = 1.0
    sb[zero[1]] = 1.0
    corr = (a.T @ b) / (a.shape[0] * np.outer(sa, sb))
    return float(np.max(np.abs(corr))), zero


def awkward_sample(N, seed):
    """Random e (N x 4) and x (N x 5) with a zero column, constant columns
    and columns offset by 1e3 and 1e6."""
    rng = np.random.default_rng(seed)
    e = rng.standard_normal((N, 4))
    x = rng.standard_normal((N, 5))
    e[:, 1] = 0.0
    e[:, 2] += 1e3
    e[:, 3] = 0.1
    x[:, 0] = 2.5
    x[:, 3] += 1e6
    x[:, 4] += 1e3
    return e, x


class TestDiagnostics:
    @pytest.mark.parametrize("N", [2, 15, 5000])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_correlations_match_two_pass_reference(self, example_innovation,
                                                   N, seed):
        e, x = awkward_sample(N, seed)
        traj = Trajectory(y=np.zeros((N, 1)), w=np.zeros((N, 1)), x=x, e=e)
        rep = innovation_diagnostics(example_innovation, traj)
        ref_auto = [two_pass_crosscorr(e[k:], e[:-k])[0] if k < N else 0.0
                    for k in range(1, 21)]
        ref_ex = [two_pass_crosscorr(e[k:], x[:N - k])[0] if k < N else 0.0
                  for k in range(11)]
        got = np.concatenate([rep.e_autocorr, rep.e_state_corr])
        ref = np.array(ref_auto + ref_ex)
        assert np.all(np.isfinite(got))
        if N >= 5000:
            assert np.max(np.abs(got - ref)) <= 1e-12
        else:
            # slices of a few samples: a valid coefficient is what holds
            assert np.all((got >= 0.0) & (got <= 1.0 + 1e-12))

    @pytest.mark.parametrize("N", [2, 15, 5000])
    def test_zero_std_counts_as_one(self, example_innovation, N):
        # from lag 3 on, the zero column and the constant ends below have
        # a zero std in every slice of the reference, and so has every
        # one-sample slice; the rule then gives a correlation of 0, where
        # the plain formula gives 0/0 or, from column totals, rounding over
        # rounding
        e, x = awkward_sample(N, 3)
        # constant after its first and before its last three samples
        e[:3, 3], x[-3:, 0] = [0.3, -0.2, 0.5][:N], [1.0, -1.0, 0.5][-N:]
        for ea, xa, e_flat in (([1, 3], [0], True), ([0, 2], [0], False)):
            for k in range(3, min(N, 21)):
                za, zb = two_pass_crosscorr(e[k:, ea], x[:N - k, xa])[1]
                assert za.all() if e_flat else zb.all()
            traj = Trajectory(y=np.zeros((N, 1)), w=np.zeros((N, 1)),
                              x=x[:, xa], e=e[:, ea])
            rep = innovation_diagnostics(example_innovation, traj)
            assert np.max(rep.e_state_corr[3:], initial=0.0) <= 1e-12
            if e_flat:
                assert np.max(rep.e_autocorr[2:], initial=0.0) <= 1e-12
        traj = Trajectory(y=np.zeros((N, 1)), w=np.zeros((N, 1)), x=x, e=e)
        rep = innovation_diagnostics(example_innovation, traj)
        if N <= 21:  # lag N - 1 leaves one sample
            assert rep.e_autocorr[N - 2] == 0.0
        if N <= 11:
            assert rep.e_state_corr[N - 1] == 0.0

    def test_two_samples_far_from_the_mean_correlate_fully(
            self, example_innovation):
        # any two non-constant two-sample slices correlate fully; here one
        # pair of samples is close and far from the column mean, where
        # moments from column totals would cancel
        N = 15
        e, x = awkward_sample(N, 4)
        e = e[:, :1]
        e[-2:, 0] = [5.0, 5.0 + 1e-6]
        traj = Trajectory(y=np.zeros((N, 1)), w=np.zeros((N, 1)), x=x, e=e)
        rep = innovation_diagnostics(example_innovation, traj)
        assert abs(rep.e_autocorr[N - 3] - 1.0) <= 1e-12

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


SPECIAL_VALUES = [0.0, -0.0, 5e-324, 1e300, 2.0 ** 53, -1.5]


def special_columns(rows, width, seed):
    """rows x width floats: the special values, then random ones."""
    v = np.random.default_rng(seed).standard_normal(rows * width)
    k = min(len(v), len(SPECIAL_VALUES))
    v[:k] = SPECIAL_VALUES[:k]
    return v.reshape(rows, width)


class TestTrajectoryCsv:
    @pytest.mark.parametrize("full", [True, False], ids=["x-e", "y-w-only"])
    @pytest.mark.parametrize("rows", [0, 1, _CSV_CHUNK_ROWS - 1,
                                      _CSV_CHUNK_ROWS, _CSV_CHUNK_ROWS + 1])
    def test_bytes_are_savetxt_bytes(self, tmp_path, rows, full):
        y, w = special_columns(rows, 1, 1), special_columns(rows, 2, 2)
        x, e = ((special_columns(rows, 3, 3), special_columns(rows, 2, 4))
                if full else (None, None))
        save_trajectory(Trajectory(y=y, w=w, x=x, e=e), tmp_path / "got.csv")
        header = "t,y1,w1,w2" + (",x1,x2,x3,e1,e2" if full else "")
        data = np.column_stack([np.arange(rows), y, w]
                               + ([x, e] if full else []))
        np.savetxt(tmp_path / "ref.csv", data, delimiter=",",
                   fmt=["%d"] + ["%.17g"] * (data.shape[1] - 1),
                   header=header, comments="")
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "ref.csv").read_bytes()

    def test_round_trip(self, example_innovation, tmp_path):
        traj = simulate(example_innovation, SimConfig(N=50, seed=3))
        path = tmp_path / "traj.csv"
        save_trajectory(traj, path)
        back = load_trajectory(path)
        assert np.array_equal(back.y, traj.y)
        assert np.array_equal(back.w, traj.w)
        assert np.array_equal(back.x, traj.x)
        assert np.array_equal(back.e, traj.e)

    def test_gz_suffix_round_trip(self, example_innovation, tmp_path):
        # the suffix selects no compression on either side
        traj = simulate(example_innovation, SimConfig(N=50, seed=3))
        path = tmp_path / "traj.csv.gz"
        save_trajectory(traj, path)
        assert path.read_text().startswith("t,y1,w1,")
        back = load_trajectory(path)
        for name in ("y", "w", "x", "e"):
            assert np.array_equal(getattr(back, name), getattr(traj, name))

    @pytest.mark.parametrize("where", ["header", "body"])
    def test_gzip_file_rejected(self, example_innovation, tmp_path, where):
        traj = simulate(example_innovation, SimConfig(N=5, seed=3))
        save_trajectory(traj, tmp_path / "traj.csv")
        text = (tmp_path / "traj.csv").read_bytes()
        path = tmp_path / "traj.csv.gz"
        if where == "header":  # the whole file compressed
            path.write_bytes(gzip.compress(text))
        else:  # a text header over a compressed body
            head, body = text.split(b"\n", 1)
            path.write_bytes(head + b"\n" + gzip.compress(body))
        with pytest.raises(ModelFormatError):
            load_trajectory(path)

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

    def test_out_of_order_header_rejected(self, example_innovation,
                                          tmp_path):
        from ffest.errors import ModelFormatError

        path = tmp_path / "traj.csv"
        save_trajectory(simulate(example_innovation, SimConfig(N=5, seed=3)),
                        path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,y1,w1,x1,x2,e1,e2"
        lines[0] = "t,w1,y1,x1,x2,e1,e2"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError, match="unexpected header"):
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

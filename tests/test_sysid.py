"""Parameterizations, prediction-error objective, identify, benchmark."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ffest.sysid
from ffest import (
    Dims,
    OptimizerConfig,
    SimConfig,
    SingleEntryParameterization,
    assemble,
    benchmark,
    build_parameterization,
    filter_signal,
    identify,
    known_blocks,
    objective,
    objective_and_gradient,
    random_benchmark_system,
    simulate,
    spectral_radius,
    synthesize,
    trajectory_rng,
    triangularize,
    validate,
    write_benchmark_curve_csv,
    write_benchmark_rows_csv,
    write_benchmark_table_csv,
)
from ffest.errors import (FfestError, IdentificationError, SamplingError,
                          ValidationError)
from ffest.metrics import mse
from ffest.sysid import CASES

from conftest import count_state_paths

TABLE_DIMS = Dims(n=10, p1=4, p2=6, p=3, q=2)


def table_fixed(case):
    return known_blocks(case, random_benchmark_system())


def table_par(case):
    """The parameterization of ``case`` for the benchmark system; for
    single_entry, its C11[0, 0], which leaves Atil and Ktil unchanged."""
    if case == "single_entry":
        return SingleEntryParameterization(random_benchmark_system(),
                                           block="C11", index=(0, 0))
    return build_parameterization(case, TABLE_DIMS, fixed=table_fixed(case))


# the cases that search with finite differences, through _objective_batch
FD_CASES = ("pred_partial", "gen_partial", "single_entry")


def fd_par(case):
    """:func:`table_par`, with single_entry freeing A11[0, 0], which the
    stability barrier can act on."""
    if case == "single_entry":
        return SingleEntryParameterization(random_benchmark_system(),
                                           block="A11", index=(0, 0))
    return table_par(case)


class TestParameterCounts:
    def test_known_blocks(self):
        t = random_benchmark_system()
        assert known_blocks("pred_full", t) == {}
        gen = known_blocks("gen_full", t)
        assert list(gen) == ["C"] and np.array_equal(gen["C"], assemble(t).C)
        for case in ("pred_partial", "gen_partial"):
            blocks = known_blocks(case, t)
            assert sorted(blocks) == ["A22", "C22", "K22", "Q22"]
            for name, block in blocks.items():
                assert np.array_equal(block, getattr(t, name))

    @pytest.mark.parametrize("case,count", [
        ("pred_full", 156),
        ("gen_full", 150),
        ("pred_partial", 96),
        ("gen_partial", 90),
    ])
    def test_reference_configuration(self, case, count):
        par = build_parameterization(case, TABLE_DIMS, fixed=table_fixed(case))
        assert par.theta_dim == count

    def test_inconsistent_partition_rejected(self):
        with pytest.raises(ValueError):
            build_parameterization("pred_full", Dims(10, 3, 6, 3, 2))

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError):
            build_parameterization("mystery", TABLE_DIMS)

    @pytest.mark.parametrize("case", ["mystery", "single_entry"])
    def test_known_blocks_rejects_unknown_case(self, case):
        # the same error as build_parameterization, not the partial blocks
        with pytest.raises(ValueError, match=f"unknown case '{case}'"):
            known_blocks(case, random_benchmark_system())

    def test_partial_requires_fixed_blocks(self):
        with pytest.raises(ValueError):
            build_parameterization("pred_partial", TABLE_DIMS, fixed=None)

    def test_gen_full_requires_c(self):
        with pytest.raises(ValueError):
            build_parameterization("gen_full", TABLE_DIMS, fixed=None)

    @pytest.mark.parametrize("case,block", [
        ("pred_partial", "K22"),
        ("gen_partial", "C22"),
        ("gen_full", "C"),
    ])
    def test_transposed_fixed_block_rejected(self, case, block):
        # right size, wrong shape: a ValueError that names the fixed block
        fixed = table_fixed(case)
        fixed[block] = fixed[block].T
        with pytest.raises(ValueError, match=f"fixed {block} must be"):
            build_parameterization(case, TABLE_DIMS, fixed=fixed)


class TestEncodeDecode:
    def test_pred_full_round_trip(self):
        par = build_parameterization("pred_full", TABLE_DIMS)
        rng = np.random.default_rng(1)
        theta = rng.standard_normal(par.theta_dim)
        assert np.allclose(par.encode(par.decode(theta)), theta)

    def test_gen_full_round_trip(self):
        par = build_parameterization("gen_full", TABLE_DIMS,
                                     fixed=table_fixed("gen_full"))
        theta = np.random.default_rng(2).standard_normal(par.theta_dim)
        m = par.decode(theta)
        assert np.allclose(par.encode(m), theta)
        assert np.allclose(m.C, table_fixed("gen_full")["C"])

    @pytest.mark.parametrize("case", ["pred_partial", "gen_partial"])
    def test_partial_round_trip(self, case):
        fixed = table_fixed(case)
        par = build_parameterization(case, TABLE_DIMS, fixed=fixed)
        theta = np.random.default_rng(3).standard_normal(par.theta_dim)
        m = par.decode(theta)
        assert np.allclose(par.encode(m), theta)
        # known blocks are pinned
        assert np.allclose(m.A22, fixed["A22"])
        assert np.allclose(m.Q22, fixed["Q22"])

    def test_gen_partial_has_no_q12(self):
        par = build_parameterization("gen_partial", TABLE_DIMS,
                                     fixed=table_fixed("gen_partial"))
        theta = np.zeros(par.theta_dim)
        assert np.allclose(par.decode(theta).Q12, 0.0)

    def test_gen_full_projection_is_triangularize(self):
        # the search projects its iterates exactly as the public
        # triangularize does at the given partition
        par = build_parameterization("gen_full", TABLE_DIMS,
                                     fixed=table_fixed("gen_full"))
        theta = np.random.default_rng(4).standard_normal(par.theta_dim)
        _, tri, S, _ = par._stages(theta)
        ref = triangularize(par.decode(theta), tol_fb=np.inf, p2=6)
        for name in ("A11", "A12", "A22", "K11", "K12", "K22",
                     "C11", "C12", "C22", "Q11", "Q12", "Q22", "T"):
            assert np.array_equal(getattr(tri, name), getattr(ref, name))
        assert (tri.p1, tri.p2) == (ref.p1, ref.p2) == (4, 6)
        assert np.all(np.diff(S) >= 0.0)

    def test_single_entry(self):
        base = random_benchmark_system()
        par = SingleEntryParameterization(base, block="A12", index=(0, 0))
        assert par.theta_dim == 1
        m = par.decode(np.array([0.123]))
        assert m.A12[0, 0] == pytest.approx(0.123)
        assert np.allclose(m.A11, base.A11)

    @pytest.mark.parametrize("case", CASES + ("single_entry",))
    def test_decode_matches_checked_construction(self, case):
        # decode skips the constructor checks; it must build the model the
        # checked constructor builds, sharing the same template arrays
        par = table_par(case)
        theta = np.random.default_rng(6).standard_normal(par.theta_dim)
        kept = par.encode(par.template)
        filled = {}
        for (name, mask), part in zip(par.free.items(),
                                      np.split(theta, par._cuts)):
            filled[name] = getattr(par.template, name).copy()
            filled[name][mask] = part
        ref = replace(par.template, **filled)
        m = par.decode(theta)
        assert type(m) is type(ref)
        for f in fields(ref):
            got, want = getattr(m, f.name), getattr(ref, f.name)
            if f.type is np.ndarray:
                assert got.shape == want.shape
                assert np.array_equal(got, want)
                shared = getattr(par.template, f.name)
                assert (got is shared) == (want is shared)
            else:
                assert got == want
        assert np.array_equal(par.encode(par.template), kept)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("case", ["pred_partial", "single_entry"])
    def test_decode_rejects_non_finite_theta(self, case, bad):
        par = table_par(case)
        theta = np.zeros(par.theta_dim)
        theta[-1] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            par.decode(theta)

    @pytest.mark.parametrize("extra", [-1, 1, -5])
    def test_decode_rejects_wrong_length(self, extra):
        # extra = -5 leaves one entry for Q12's six, which numpy would
        # broadcast into the whole block
        par = table_par("pred_partial")
        with pytest.raises(ValueError, match="theta has shape"):
            par.decode(np.zeros(par.theta_dim + extra))


class TestObjective:
    def test_true_predictor_attains_floor(self):
        t = random_benchmark_system()
        traj = simulate(assemble(t), SimConfig(N=2000, seed=5))
        par = build_parameterization(
            "pred_full", Dims(t.n, t.p1, t.p2, t.p, t.q))
        est = synthesize(t)
        theta = par.encode(est)
        val = objective(par, theta, traj)
        # the true estimator cannot do much better than the Schur floor
        D0 = np.linalg.solve(t.Q22.T, t.Q12.T).T
        floor = float(np.trace(t.Q11 - D0 @ t.Q12.T))
        assert floor * 0.8 <= val <= floor * 1.3

    def test_non_finite_theta_is_inf(self):
        par = build_parameterization("pred_full", Dims(2, 1, 1, 1, 1))
        traj = simulate(assemble(random_benchmark_system(n=2, p1=1, p2=1,
                                                         p=1, q=1)),
                        SimConfig(N=50, seed=1))
        theta = np.full(par.theta_dim, np.nan)
        assert objective(par, theta, traj) == np.inf

    def test_unstable_iterate_penalized_not_inf(self):
        t = random_benchmark_system(n=2, p1=1, p2=1, p=1, q=1)
        traj = simulate(assemble(t), SimConfig(N=200, seed=2))
        par = build_parameterization("pred_full", Dims(2, 1, 1, 1, 1))
        est = synthesize(t)
        theta = par.encode(est)
        theta_bad = theta.copy()
        theta_bad[:4] *= 10.0 / max(1e-9, spectral_radius(est.Atil))
        val = objective(par, theta_bad, traj)
        assert np.isfinite(val)
        assert val > objective(par, theta, traj)


@pytest.fixture(scope="module")
def fd_data():
    return simulate(assemble(random_benchmark_system()),
                    SimConfig(N=150, seed=6))


def stateless_par(case):
    """``case`` on the benchmark system's w-dimensions with no states:
    n = p1 = p2 = 0, so pred_partial's only free entries are Q12's and
    gen_partial has none."""
    fixed = {"A22": np.zeros((0, 0)), "K22": np.zeros((0, 2)),
             "C22": np.zeros((2, 0)), "Q22": random_benchmark_system().Q22}
    return build_parameterization(case, Dims(0, 0, 0, 3, 2), fixed=fixed)


def count_objective_calls(monkeypatch):
    """A list that gains one entry per call of sysid.objective."""
    calls = []
    objective = ffest.sysid.objective

    def counting(*args):
        calls.append(None)
        return objective(*args)

    monkeypatch.setattr(ffest.sysid, "objective", counting)
    return calls


def plain_objective(par, theta, data):
    est, penalty = par.estimator_for(theta)
    return mse(data.y, filter_signal(est, data.w)) + penalty


def record_evaluations(monkeypatch, evaluated):
    """Append every (theta, value) that objective and _objective_batch
    compute to ``evaluated``; a call made inside another is the same
    evaluation and is not recorded again."""
    depth = [0]

    def wrap(fn, batch):
        def recording(par, thetas, data):
            depth[0] += 1
            try:
                values = fn(par, thetas, data)
            finally:
                depth[0] -= 1
            if not depth[0]:
                rows, vals = ((thetas, values) if batch
                              else ([thetas], [values]))
                evaluated.extend(zip(np.array(rows, dtype=float), vals))
            return values
        return recording

    monkeypatch.setattr(ffest.sysid, "objective",
                        wrap(ffest.sysid.objective, False))
    monkeypatch.setattr(ffest.sysid, "_objective_batch",
                        wrap(ffest.sysid._objective_batch, True))


def pair_keys(par, thetas):
    """The distinct (Atil, Ktil) bit patterns of the rows of ``thetas``."""
    return {(e.Atil.tobytes(), e.Ktil.tobytes())
            for e, _ in map(par.estimator_for, thetas)}


class TestStateMemo:
    """identify's finite-difference probes share filter states: each
    gradient is one batch, with one state path per distinct (Atil, Ktil)
    bit pattern."""

    @pytest.mark.parametrize("case",
                             ["pred_partial", "gen_partial", "single_entry"])
    def test_search_values_are_exact(self, fd_data, case, monkeypatch):
        par = table_par(case)
        evaluated = []
        batches = []  # (rows, state paths run) per batch
        paths = count_state_paths(monkeypatch)
        batch = ffest.sysid._objective_batch

        def counting(par, thetas, data):
            before = len(paths)
            values = batch(par, thetas, data)
            batches.append((np.array(thetas), len(paths) - before))
            return values

        monkeypatch.setattr(ffest.sysid, "_objective_batch", counting)
        record_evaluations(monkeypatch, evaluated)
        identify(par, fd_data, opt=OptimizerConfig(restarts=0, maxiter=5))
        monkeypatch.undo()
        assert batches
        for rows, ran in batches:
            assert ran == len(pair_keys(par, rows))
        for theta, value in evaluated:
            assert value == plain_objective(par, theta, fd_data)

    def test_fits_do_not_share_states(self, monkeypatch):
        t = random_benchmark_system()
        trajs = [simulate(assemble(t), SimConfig(N=150, seed=seed))
                 for seed in (7, 8)]
        opt = OptimizerConfig(restarts=0, maxiter=5)
        par = table_par("pred_partial")
        for traj in trajs:
            fit = identify(par, traj, opt=opt)
            fresh = identify(table_par("pred_partial"), traj, opt=opt)
            assert np.array_equal(fit.theta, fresh.theta)
        theta = fit.theta
        for traj in trajs:
            assert (objective(par, theta, traj)
                    == plain_objective(par, theta, traj))
        # every theta of the C11 entry has the same (Atil, Ktil), so a path
        # that outlived the fit on the other data would serve here
        par = table_par("single_entry")
        for traj in trajs:
            evaluated = []
            record_evaluations(monkeypatch, evaluated)
            identify(par, traj, opt=opt)
            monkeypatch.undo()
            for theta, value in evaluated:
                assert value == plain_objective(par, theta, traj)


class TestObjectiveBatch:
    """_objective_batch equals objective row by row, and identify counts
    every value it computes."""

    def test_evaluations_count_every_value(self, fd_data, monkeypatch):
        par = table_par("pred_partial")
        evaluated = []
        record_evaluations(monkeypatch, evaluated)
        fit = identify(par, fd_data,
                       opt=OptimizerConfig(restarts=1, maxiter=5))
        monkeypatch.undo()
        assert fit.evaluations == len(evaluated)

    @staticmethod
    def thetas(par):
        """Rows that run the stacked path: an ordinary theta, one with the
        stability barrier active, and one forward-difference probe per
        coordinate (C11 and C12 probes leave Atil and Ktil unchanged), plus
        a repeated row; and rows that fail a check: an inf entry, and
        huge entries, whose products overflow into a non-finite predictor
        where D0 is formed (pred_partial)."""
        base = par.encode(par.template)
        theta = base + 0.05 * np.random.default_rng(12).standard_normal(
            par.theta_dim)
        probes = theta + np.diag(np.sqrt(np.finfo(float).eps)
                                 * np.maximum(1.0, np.abs(theta)))
        good = np.vstack([theta, base + 5.0, *probes, theta])
        inf = theta.copy()
        inf[0] = np.inf
        return good, np.vstack([good, inf, base + 1e307])

    @staticmethod
    def overflowing(par, theta):
        """A pred_partial row at ``theta`` whose Ctil = [C11, C12 - D0 C22]
        overflows while Atil stays finite: K11 = 0, Q12 at 1e300, and C12
        at the largest float against D0 C22. A non-finite D0 would reach
        Atil through K11 D0 (0 * inf is nan), and the other cases have no
        such row: their D0 and Ctil are free entries or template blocks,
        finite whenever theta is."""
        at = dict(zip(par.free, np.split(np.arange(par.theta_dim),
                                         par._cuts)))
        row = theta.copy()
        row[at["K11"]] = 0.0
        row[at["Q12"]] = 1e300
        b = par._blocks(row[None])
        row[at["C12"]] = (-np.finfo(float).max
                          * np.sign(par._d0(b) @ b.C22)).ravel()
        return row

    # the row base + 1e307 overflows on purpose, in synthesis and barrier,
    # and so does the overflowing row
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("case", FD_CASES)
    def test_batch_equals_objective(self, fd_data, case, monkeypatch):
        par = fd_par(case)
        good, every = self.thetas(par)
        for rows in (good, every):
            values = ffest.sysid._objective_batch(par, rows, fd_data)
            assert values == [objective(par, theta, fd_data) for theta in rows]
        if case == "pred_partial":
            # a row with a non-finite Ctil reads +inf by the value rule, on
            # the stacked path: no row is evaluated alone
            over = self.overflowing(par, good[0])
            b = par._blocks(over[None])
            Atil, Ktil, Ctil = ffest.sysid._estimator_blocks(b, par._d0(b))
            assert np.isfinite(Atil).all() and np.isfinite(Ktil).all()
            assert not np.isfinite(Ctil).all()
            rows = np.vstack([good, over])
            expected = [objective(par, theta, fd_data) for theta in rows]
            assert expected[-1] == np.inf
            calls = count_objective_calls(monkeypatch)
            assert ffest.sysid._objective_batch(par, rows, fd_data) == expected
            assert not calls
            monkeypatch.undo()
        assert par.estimator_for(good[1])[1] > 0.0
        assert objective(par, every[-2], fd_data) == np.inf
        if case == "pred_partial":
            # K11 D0 overflows: the predictor has non-finite entries
            with pytest.raises(ValidationError, match="non-finite"):
                par.estimator_for(every[-1])
        else:
            # no product overflows: the entries stay finite, and the
            # barrier rejects the huge Atil
            est, penalty = par.estimator_for(every[-1])
            assert np.isfinite(est.Atil).all() and penalty == np.inf

    @pytest.mark.parametrize("case", FD_CASES)
    def test_one_path_per_distinct_pair(self, fd_data, case, monkeypatch):
        # each call runs one state path per distinct (Atil, Ktil) among its
        # rows and keeps none for the next
        par = fd_par(case)
        good, _ = self.thetas(par)
        expected = [objective(par, theta, fd_data) for theta in good]
        keys = pair_keys(par, good)
        assert len(keys) < len(good)
        paths = count_state_paths(monkeypatch)
        for calls in (1, 2):
            assert ffest.sysid._objective_batch(par, good, fd_data) == expected
            assert len(paths) == calls * len(keys)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(case=st.sampled_from(FD_CASES), seed=st.integers(0, 2**32 - 1),
           probes=st.integers(1, 6))
    def test_batch_equals_objective_property(self, fd_data, case, seed,
                                             probes):
        # rows as identify batches them: points at a small scale and with
        # the barrier active, forward probes of single coordinates, and a
        # repeated row
        par = fd_par(case)
        rng = np.random.default_rng(seed)
        base = par.encode(par.template)
        z = rng.standard_normal((2, par.theta_dim))
        points = [base + 0.05 * z[0], base + np.sign(z[1]) * (2.0 + abs(z[1]))]
        assert par.estimator_for(points[1])[1] > 0.0
        rows = list(points)
        for theta in points:
            for i in rng.choice(par.theta_dim, min(probes, par.theta_dim),
                                replace=False):
                probe = theta.copy()
                probe[i] += np.sqrt(np.finfo(float).eps) * max(1.0,
                                                               abs(theta[i]))
                rows.append(probe)
        rows.insert(int(rng.integers(len(rows) + 1)), rows[0])
        values = ffest.sysid._objective_batch(par, np.array(rows), fd_data)
        assert values == [objective(par, theta, fd_data) for theta in rows]

    @pytest.mark.parametrize("case", FD_CASES)
    def test_stack_decomposition_failure(self, fd_data, case, monkeypatch):
        # when the stacked eigendecomposition fails, every row is evaluated
        # alone by objective, whose single decompositions still run
        par = fd_par(case)
        good, _ = self.thetas(par)
        expected = [objective(par, theta, fd_data) for theta in good]
        eig = np.linalg.eig

        def failing(a):
            if np.ndim(a) > 2 and len(a) > 1:
                raise np.linalg.LinAlgError("stacked eig failed")
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", failing)
        calls = count_objective_calls(monkeypatch)
        assert ffest.sysid._objective_batch(par, good, fd_data) == expected
        assert len(calls) == len(good)

    def test_no_states(self, fd_data, monkeypatch):
        # an estimator with no states: the batch runs N x 0 state paths
        par = stateless_par("pred_partial")
        assert par.theta_dim == 6
        base = par.encode(par.template)
        rng = np.random.default_rng(13)
        rows = base + 0.1 * rng.standard_normal((3, par.theta_dim))
        rows = np.vstack([rows, rows[0]])
        expected = [objective(par, theta, fd_data) for theta in rows]
        assert np.isfinite(expected).all()
        calls = count_objective_calls(monkeypatch)
        assert ffest.sysid._objective_batch(par, rows, fd_data) == expected
        assert not calls

    def test_no_rows(self, fd_data):
        # a gradient over no free entries has no probes
        par = table_par("pred_partial")
        assert ffest.sysid._objective_batch(par, [], fd_data) == []

    @pytest.mark.parametrize("rows", [1, 3])
    def test_wrong_length_raises(self, fd_data, rows):
        par = table_par("pred_partial")
        with pytest.raises(ValueError, match="theta has shape"):
            ffest.sysid._objective_batch(
                par, np.zeros((rows, par.theta_dim + 1)), fd_data)
        with pytest.raises(ValueError, match="theta has shape"):
            objective(par, np.zeros(par.theta_dim - 1), fd_data)


def gradient_points():
    """Parameters (case, region, theta) at random theta with the stability
    barrier inactive and active, and gen_full's start theta = 0."""
    rng = np.random.default_rng(11)
    points = []
    for case in CASES:
        dim = build_parameterization(case, TABLE_DIMS,
                                     fixed=table_fixed(case)).theta_dim
        for region, scale in (("stable", 0.05), ("barrier", 1.0)):
            points.append(pytest.param(case, region,
                                       scale * rng.standard_normal(dim),
                                       id=f"{case}-{region}"))
    points.append(pytest.param("gen_full", "stable", None, id="gen_full-zero"))
    return points


def single_entry_points():
    """Parameters (block, index, value, region) of the single-entry case."""
    q22 = random_benchmark_system().Q22[0, 0]
    return [pytest.param(block, index, value, region, id=f"{block}-{region}")
            for block, index, value, region in (
                ("A11", (0, 0), 0.3, "stable"),
                ("A11", (0, 0), 5.0, "barrier"),
                ("K11", (1, 2), 0.1, "stable"),
                ("Q22", (0, 0), q22 + 0.1, "stable"))]


class TestGradient:
    """objective_and_gradient against central differences.

    Per coordinate, D(h) = (F(theta + h e) - F(theta - h e)) / 2h differs
    from the derivative by a h^2 + O(h^4) plus rounding of at most
    delta / h, delta bounding the error of one evaluation of F. Since
    D(2h) - D(h) = 3 a h^2 + O(h^4) + rounding, the error of D(h) is at
    most |D(2h) - D(h)| / 3 + 1.5 delta / h up to O(h^4); the tolerance
    triples the truncation estimate for the higher-order terms and doubles
    the rounding term for the analytic gradient's own rounding. delta
    bounds a sum of N squared residuals whose filter amplifies rounding by
    the condition number kappa of the filter matrix's eigenvectors:
    delta = N kappa eps |F|. At the random gen_full points every singular
    value of the w-observability matrix is resolved, so no pair is dropped
    as a zero gap; at theta = 0 the dropped pairs carry d(O^T O) = 0.
    """

    H = 1e-5

    @pytest.fixture(scope="class")
    def data(self):
        return simulate(assemble(random_benchmark_system()),
                        SimConfig(N=200, seed=3))

    def check(self, par, theta, data, region):
        theta = np.asarray(theta, dtype=float)
        value, grad = objective_and_gradient(par, theta, data)
        assert value == objective(par, theta, data)
        est, penalty = par.estimator_for(theta)
        assert (penalty > 0.0) == (region == "barrier")

        def central(h):
            d = np.zeros(par.theta_dim)
            for i in range(par.theta_dim):
                e = np.zeros(par.theta_dim)
                e[i] = h
                d[i] = (objective(par, theta + e, data)
                        - objective(par, theta - e, data)) / (2.0 * h)
            return d

        d1, d2 = central(self.H), central(2.0 * self.H)
        kappa = np.linalg.cond(np.linalg.eig(est.Atil)[1])
        delta = data.N * kappa * np.finfo(float).eps * abs(value)
        tol = np.abs(d2 - d1) + 3.0 * delta / self.H
        assert np.all(np.abs(grad - d1) <= tol), np.max(np.abs(grad - d1) / tol)
        # the objective cannot see the dead entries
        assert np.all(grad[par.dead] == 0.0)

    @pytest.mark.parametrize("case, region, theta", gradient_points())
    def test_matches_central_differences(self, data, case, region, theta):
        par = build_parameterization(case, TABLE_DIMS,
                                     fixed=table_fixed(case))
        if theta is None:
            theta = np.zeros(par.theta_dim)
        self.check(par, theta, data, region)

    @pytest.mark.parametrize("block, index, value, region",
                             single_entry_points())
    def test_single_entry(self, data, block, index, value, region):
        par = SingleEntryParameterization(random_benchmark_system(),
                                          block=block, index=index)
        self.check(par, [value], data, region)


class TestPartialSaddle:
    """The partial cases' start theta = 0 is a saddle: there C11 = 0 and
    the gain on e2, K12 + K11 D0, is 0, so the x1 estimate is 0 and the
    objective does not move to first order in any x1 entry. Only C12, and
    pred_partial's Q12 through D0, see the data."""

    X1 = ("A11", "A12", "K11", "K12", "C11")

    @pytest.mark.parametrize("case, moving", [
        ("pred_partial", ("C12", "Q12")), ("gen_partial", ("C12",))],
        ids=["pred_partial", "gen_partial"])
    def test_gradient_at_zero(self, fd_data, case, moving):
        par = table_par(case)
        _, grad = objective_and_gradient(par, np.zeros(par.theta_dim),
                                         fd_data)
        blocks = dict(zip(par.free, np.split(grad, par._cuts)))
        assert sum(blocks[name].size for name in self.X1) == 72
        for name in self.X1:
            assert np.all(blocks[name] == 0.0), name
        for name in moving:
            assert np.all(blocks[name] != 0.0), name


class TestDeadEntries:
    @pytest.mark.parametrize("case", ["gen_partial", "gen_full"])
    def test_final_estimator_ignores_dead_start_values(self, case):
        # K11 (gen_partial) and the y-innovation columns of K (gen_full)
        # multiply the D0 = 0 of the search, so they must not carry their
        # start values into the post-fit direct gain
        t = random_benchmark_system()
        par = build_parameterization(case, TABLE_DIMS,
                                     fixed=table_fixed(case))
        traj = simulate(assemble(t), SimConfig(N=300, seed=4))
        rng = np.random.default_rng(5)
        theta0 = 0.05 * rng.standard_normal(par.theta_dim)
        m = par.decode(theta0)
        if case == "gen_partial":
            m.K11 = rng.standard_normal(m.K11.shape)
        else:
            m.K[:, :m.p] = rng.standard_normal((m.n, m.p))
        moved = par.encode(m)
        assert not np.array_equal(moved, theta0)
        opt = OptimizerConfig(restarts=1, maxiter=3, seed=0)
        fits = [identify(par, traj, opt=opt, theta0=th)
                for th in (theta0, moved)]
        for name in ("Atil", "Ktil", "Ctil", "D0"):
            assert np.array_equal(getattr(fits[0].estimator, name),
                                  getattr(fits[1].estimator, name))
        assert np.all(fits[0].theta[par.dead] == 0.0)


class TestIdentify:
    def test_scalar_recovery(self):
        from ffest.cli import example_triangular_model

        base = example_triangular_model()
        theta_true = float(base.A12[0, 0])
        par = SingleEntryParameterization(base, block="A12", index=(0, 0))
        traj = simulate(assemble(base), SimConfig(N=1000, seed=0),
                        rng=trajectory_rng(0))
        fit = identify(par, traj,
                       opt=OptimizerConfig(restarts=2, maxiter=200, seed=0))
        assert abs(fit.theta[0] - theta_true) <= 0.15
        assert fit.training_mse < 6.0
        assert validate(fit.estimator).ok

    def test_overparameterized_warning(self):
        par = build_parameterization("pred_full", Dims(2, 1, 1, 1, 1))
        t = random_benchmark_system(n=2, p1=1, p2=1, p=1, q=1)
        traj = simulate(assemble(t), SimConfig(N=8, seed=1))
        with pytest.warns(UserWarning, match="over-parameterized"):
            identify(par, traj, opt=OptimizerConfig(restarts=0, maxiter=2))

    def test_all_starts_diverge_raises(self):
        t = random_benchmark_system(n=2, p1=1, p2=1, p=1, q=1)
        fixed = {"A22": t.A22, "K22": t.K22, "C22": t.C22,
                 "Q22": np.zeros((1, 1))}  # singular input innovation
        par = build_parameterization("pred_partial", Dims(2, 1, 1, 1, 1),
                                     fixed=fixed)
        traj = simulate(assemble(t), SimConfig(N=100, seed=1))
        with pytest.raises(IdentificationError):
            identify(par, traj, opt=OptimizerConfig(restarts=1, maxiter=5))

    def test_pred_full_from_zero_gets_a_random_start(self):
        # theta = 0 is a saddle of pred_full: from it only D0 moves, and the
        # fit would be a static gain with Ctil = 0
        t = random_benchmark_system(n=2, p1=1, p2=1, p=1, q=1)
        par = build_parameterization("pred_full", Dims(2, 1, 1, 1, 1))
        traj = simulate(assemble(t), SimConfig(N=300, seed=4))
        fit = identify(par, traj, opt=OptimizerConfig(restarts=0, maxiter=15))
        assert fit.restarts_used == 1
        assert np.any(fit.estimator.Ctil != 0.0)

    def test_given_theta0_runs_one_start(self, monkeypatch):
        # the pred_full start rule leaves a given start alone
        import scipy.optimize

        t = random_benchmark_system(n=2, p1=1, p2=1, p=1, q=1)
        par = build_parameterization("pred_full", Dims(2, 1, 1, 1, 1))
        traj = simulate(assemble(t), SimConfig(N=300, seed=4))
        starts = []
        minimize = scipy.optimize.minimize

        def counted(fun, x0, **kw):
            starts.append(x0.copy())
            return minimize(fun, x0, **kw)

        # identify imports minimize when it runs, so it finds this one
        monkeypatch.setattr(scipy.optimize, "minimize", counted)
        theta0 = par.encode(synthesize(t))
        fit = identify(par, traj, theta0=theta0,
                       opt=OptimizerConfig(restarts=0, maxiter=15))
        assert fit.restarts_used == 0
        assert len(starts) == 1 and np.array_equal(starts[0], theta0)

    def test_no_free_entries(self, fd_data):
        # the gradient has no probes, and the estimator no states: the fit
        # is gen_partial's direct gain, regressed after the search
        par = stateless_par("gen_partial")
        assert par.theta_dim == 0
        fit = identify(par, fd_data, opt=OptimizerConfig(restarts=1,
                                                         maxiter=5))
        assert isinstance(fit, ffest.sysid.FitResult)
        assert fit.theta.shape == (0,)
        assert fit.estimator.n == 0
        assert np.any(fit.estimator.D0 != 0.0)
        assert fit.training_mse == mse(fd_data.y,
                                       fd_data.w @ fit.estimator.D0.T)

    def test_deterministic_given_seed(self):
        t = random_benchmark_system(n=2, p1=1, p2=1, p=1, q=1)
        fixed = {"A22": t.A22, "K22": t.K22, "C22": t.C22, "Q22": t.Q22}
        par = build_parameterization("pred_partial", Dims(2, 1, 1, 1, 1),
                                     fixed=fixed)
        traj = simulate(assemble(t), SimConfig(N=300, seed=4))
        opt = OptimizerConfig(restarts=1, maxiter=20, seed=7)
        f1 = identify(par, traj, opt=opt)
        f2 = identify(par, traj, opt=opt)
        assert np.array_equal(f1.theta, f2.theta)
        assert f1.training_mse == f2.training_mse

    def test_gen_partial_recovers_direct_gain(self):
        # the generator flavour has no Q12 parameter, yet its reported
        # estimator must carry a data-estimated direct gain close to truth
        t = random_benchmark_system(n=2, p1=1, p2=1, p=1, q=1)
        fixed = {"A22": t.A22, "K22": t.K22, "C22": t.C22, "Q22": t.Q22}
        par = build_parameterization("gen_partial", Dims(2, 1, 1, 1, 1),
                                     fixed=fixed)
        traj = simulate(assemble(t), SimConfig(N=4000, seed=6))
        base = par.encode(t)
        fit = identify(par, traj, theta0=base,
                       opt=OptimizerConfig(restarts=0, maxiter=50))
        D0_true = np.linalg.solve(t.Q22.T, t.Q12.T).T
        assert np.max(np.abs(fit.estimator.D0 - D0_true)) <= 0.15
        # the finalized model embeds the gain as Q12 = D0 Q22
        assert np.allclose(fit.model.Q12,
                           fit.estimator.D0 @ fit.model.Q22, atol=1e-10)


    def test_gen_full_postfit_at_true_model(self):
        t = random_benchmark_system()
        m = assemble(t)
        par = build_parameterization("gen_full", TABLE_DIMS,
                                     fixed={"C": m.C})
        traj = simulate(m, SimConfig(N=4000, seed=0))
        theta = par.encode(m)
        model, est = par.finish(theta, traj)
        Q = model.Q
        # oracle: the joint innovation filter run sample by sample
        z = np.hstack([traj.y, traj.w])
        F = m.A - m.K @ m.C
        assert spectral_radius(F) < 1.0
        x = np.zeros(m.n)
        resid = np.zeros_like(z)
        for k in range(traj.N):
            resid[k] = z[k] - m.C @ x
            x = F @ x + m.K @ z[k]
        assert np.allclose(Q, np.cov(resid[100:].T), rtol=1e-8, atol=0.0)
        # and the true innovation covariance within 4 sampling sd's
        var = np.diag(m.Q)
        sd = np.sqrt((np.outer(var, var) + m.Q ** 2) / traj.N)
        assert np.all(np.abs(Q - m.Q) <= 4.0 * sd)
        D0_true = np.linalg.solve(t.Q22.T, t.Q12.T).T
        assert np.max(np.abs(est.D0 - D0_true)) <= 0.15


class TestRandomBenchmarkSystem:
    def test_deterministic(self):
        a = random_benchmark_system()
        b = random_benchmark_system()
        assert np.array_equal(assemble(a).A, assemble(b).A)

    def test_valid_and_stable(self):
        t = random_benchmark_system()
        m = assemble(t)
        assert validate(m).ok
        assert spectral_radius(m.A) < 1.0
        assert spectral_radius(m.A - m.K @ m.C) < 1.0
        assert spectral_radius(t.A22 - t.K22 @ t.C22) < 1.0

    def test_documented_dimensions(self):
        t = random_benchmark_system()
        assert (t.n, t.p1, t.p2, t.p, t.q) == (10, 4, 6, 3, 2)

    def test_k11_zero_floor_analytic(self):
        t = random_benchmark_system()
        assert np.allclose(t.K11, 0.0)

    def test_sampling_failure_is_typed(self):
        # no draw of this 30-state system passes the rejection tests; the
        # error stays a RuntimeError for callers that redraw on one
        with pytest.raises(SamplingError) as info:
            random_benchmark_system(n=30, p1=12, p2=18, p=3, q=2, seed=5)
        assert isinstance(info.value, FfestError)
        assert isinstance(info.value, RuntimeError)


@pytest.fixture(scope="module")
def small_result():
    system = random_benchmark_system(n=2, p1=1, p2=1, p=1, q=1)
    return benchmark(system, cases=("pred_partial",), Ns=(80,), M=2,
                     seed=0, opt=OptimizerConfig(restarts=0, maxiter=5),
                     N_val=200)


class TestBenchmark:
    def test_row_structure(self, small_result):
        r = small_result
        assert len(r.rows) == 2 * 2  # (case0 + pred_partial) x M
        assert {row.case for row in r.rows} == {"case0", "pred_partial"}
        for row in r.rows:
            assert row.error is None
            assert np.isfinite(row.validation_mse)

    def test_case0_has_no_training(self, small_result):
        agg = small_result.aggregate[("case0", 80)]
        assert agg["training_mse"] is None
        assert np.isfinite(agg["validation_mse"])

    def test_identified_not_better_than_optimal(self, small_result):
        agg = small_result.aggregate
        assert (agg[("pred_partial", 80)]["validation_mse"]
                >= agg[("case0", 80)]["validation_mse"])

    def test_csv_outputs(self, small_result, tmp_path):
        paths = {
            "rows": tmp_path / "rows.csv",
            "table": tmp_path / "table.csv",
            "curve": tmp_path / "curve.csv",
        }
        write_benchmark_rows_csv(small_result, paths["rows"])
        write_benchmark_table_csv(small_result, paths["table"])
        write_benchmark_curve_csv(small_result, paths["curve"])
        rows = paths["rows"].read_text().splitlines()
        assert rows[0] == "case,N,rep,training_mse,validation_mse,vaf1,error"
        assert len(rows) == 1 + len(small_result.rows)
        table = paths["table"].read_text().splitlines()
        assert table[0] == "N,statistic,case0,pred_partial"
        assert table[1].startswith(",total_parameters,0,")
        # the optimal case's training cell stays empty
        train_row = [l for l in table if ",training_mse," in l][0]
        assert train_row.split(",")[2] == ""
        curve = paths["curve"].read_text().splitlines()
        assert curve[0] == "case,N,avg_training_mse,avg_validation_mse"

    def test_deterministic_repeat(self, small_result, tmp_path):
        system = random_benchmark_system(n=2, p1=1, p2=1, p=1, q=1)
        again = benchmark(system, cases=("pred_partial",), Ns=(80,), M=2,
                          seed=0, opt=OptimizerConfig(restarts=0, maxiter=5),
                          N_val=200)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_benchmark_rows_csv(small_result, a)
        write_benchmark_rows_csv(again, b)
        assert a.read_bytes() == b.read_bytes()

    def test_every_cell_fails(self, tmp_path):
        # Q22 = 0: neither the true estimator nor any identified predictor
        # has a direct gain Q12 Q22^-1, so every row carries its error
        system = replace(random_benchmark_system(), Q12=np.zeros((3, 2)),
                         Q22=np.zeros((2, 2)))
        result = benchmark(system, cases=("pred_partial",), Ns=(80,), M=1,
                           N_val=200)
        assert [r.case for r in result.rows] == ["case0", "pred_partial"]
        for row in result.rows:
            assert row.error
            assert row.training_mse is None
            assert np.isnan(row.validation_mse)
        assert result.aggregate == {("case0", 80): None,
                                    ("pred_partial", 80): None}
        table, curve = tmp_path / "table.csv", tmp_path / "curve.csv"
        write_benchmark_table_csv(result, table)
        write_benchmark_curve_csv(result, curve)
        lines = table.read_text().splitlines()
        assert lines[1] == ",total_parameters,0,96"
        assert all(line.endswith(",,") for line in lines[2:])
        assert len(lines) == 2 + 6  # training, validation, 3 VAFs, mean
        assert curve.read_text() == (
            "case,N,avg_training_mse,avg_validation_mse\n")

    def test_unsimulable_validation_is_a_row_error(self):
        # Q22 = -1 has no noise factor: the validation trajectory of every
        # cell fails to simulate, which the rows report instead of raising
        system = replace(random_benchmark_system(n=2, p1=1, p2=1, p=1, q=1),
                         Q22=[[-1.0]])
        result = benchmark(system, cases=("pred_partial",), Ns=(80,), M=1,
                           N_val=200)
        assert [r.case for r in result.rows] == ["case0", "pred_partial"]
        for row in result.rows:
            assert "indefinite" in row.error
            assert row.training_mse is None
            assert np.isnan(row.validation_mse)
        assert result.aggregate == {("case0", 80): None,
                                    ("pred_partial", 80): None}

    def test_worker_count_invariant(self):
        system = random_benchmark_system()
        opt = OptimizerConfig(restarts=0, maxiter=3)
        runs = [benchmark(system, cases=("pred_partial", "gen_partial"),
                          Ns=(150,), M=2, opt=opt, N_val=200, workers=workers)
                for workers in (1, 2)]
        rows = [[(r.case, r.N, r.rep, r.training_mse, r.validation_mse,
                  r.vaf.tolist(), r.error) for r in run.rows] for run in runs]
        assert rows[0] == rows[1]

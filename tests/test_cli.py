"""Command-line interface: subcommands, artifacts, exit codes."""

import gzip
import inspect
import json
from dataclasses import replace

import numpy as np
import pytest

from ffest import (
    EstimatorModel,
    IdentificationError,
    InnovationJointModel,
    SimConfig,
    StateSpaceModel,
    OptimizerConfig,
    Trajectory,
    assemble,
    filter_signal,
    load_model,
    load_trajectory,
    markov_parameters,
    random_benchmark_system,
    save_model,
    save_trajectory,
    simulate,
    synthesize,
    triangularize,
)
import ffest.cli
from ffest.cli import _EXAMPLE_SYSTEM, _build_parser, main
from ffest.simulation import _CSV_CHUNK_ROWS
from ffest.sysid import BENCHMARK_OPT, CASES


@pytest.fixture()
def system_json(tmp_path):
    path = tmp_path / "system.json"
    save_model(_EXAMPLE_SYSTEM, path)
    return path


@pytest.fixture()
def innovation_json(tmp_path, system_json):
    out = tmp_path / "innovation.json"
    assert main(["innovation-form", str(system_json), str(out)]) == 0
    return out


class TestInnovationForm:
    def test_writes_model_and_prints_chain(self, innovation_json, capsys):
        m = load_model(innovation_json)
        assert isinstance(m, InnovationJointModel)
        assert np.allclose(m.Q, [[2.0, 1.0], [1.0, 1.0]], atol=0.02)

    # every model input of the CLI, each given a model of a kind it rejects
    @pytest.mark.parametrize("argv, wrong", [
        (["innovation-form", "{inno}", "{out}"], "inno"),
        (["synthesize", "{system}", "{out}"], "system"),
        (["simulate", "{est}", "{out}", "--n", "10"], "est"),
        (["filter", "{inno}", "{traj}", "{out}"], "inno"),
        (["identify", "{traj}", "{out}", "--case", "gen_full",
          "--dims", "2,1,1,1,1", "--truth", "{system}"], "system"),
    ], ids=["innovation-form", "synthesize", "simulate", "filter",
            "identify-truth"])
    def test_wrong_kind_exits_2(self, tmp_path, system_json, innovation_json,
                                capsys, argv, wrong):
        paths = {"system": system_json, "inno": innovation_json,
                 "est": tmp_path / "est.json", "traj": tmp_path / "traj.csv",
                 "out": tmp_path / "out"}
        assert main(["synthesize", str(innovation_json), str(paths["est"]),
                     "--tol-fb", "1e-2", "--rank-tol", "1e-2"]) == 0
        assert main(["simulate", str(innovation_json), str(paths["traj"]),
                     "--n", "50"]) == 0
        capsys.readouterr()
        assert main([a.format(**paths) for a in argv]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ModelFormatError"
        assert str(paths[wrong]) in payload["message"]

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["innovation-form", str(tmp_path / "nope.json"),
                     str(tmp_path / "out.json")]) == 2

    def test_singular_lambda0_exits_3(self, tmp_path, capsys):
        # both outputs read the same noise, so Lambda0 = D D^T is singular
        path = tmp_path / "singular.json"
        save_model(StateSpaceModel(
            A=np.diag([0.5, -0.2]), B=np.zeros((2, 2)), C=np.ones((2, 2)),
            D=np.array([[1.0, 0.0], [1.0, 0.0]]), p=1, q=1,
        ), path)
        assert main(["innovation-form", str(path),
                     str(tmp_path / "out.json")]) == 3
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "IndefiniteCovarianceError"

    # stable (spectral radius 0.5), but the Lyapunov system overflows
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowed_lyapunov_exits_3(self, tmp_path, capsys):
        path = tmp_path / "overflow.json"
        save_model(StateSpaceModel(
            A=np.array([[0.5, 1e155], [0.0, -0.5]]), B=np.eye(2),
            C=np.eye(2), D=np.eye(2), p=1, q=1,
        ), path)
        assert main(["innovation-form", str(path),
                     str(tmp_path / "out.json")]) == 3
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "SolverError"

    def test_unstable_model_exits_3(self, tmp_path, capsys):
        path = tmp_path / "unstable.json"
        save_model(StateSpaceModel(
            A=np.diag([1.2, 0.5]), B=np.eye(2), C=np.eye(2), D=np.eye(2),
            p=1, q=1,
        ), path)
        assert main(["innovation-form", str(path),
                     str(tmp_path / "out.json")]) == 3
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "StabilityError"
        assert payload["spectral_radius"] >= 1.0


class TestSynthesize:
    def test_estimator_written(self, tmp_path, innovation_json):
        out = tmp_path / "est.json"
        code = main(["synthesize", str(innovation_json), str(out),
                     "--tol-fb", "1e-2", "--rank-tol", "1e-2"])
        assert code == 0
        est = load_model(out)
        assert isinstance(est, EstimatorModel)
        assert abs(abs(est.D0[0, 0]) - 1.0) <= 0.03

    def test_tight_tolerance_exits_4(self, tmp_path, innovation_json,
                                     capsys):
        # the worked example misses the no-feedback condition at 1e-6
        out = tmp_path / "est.json"
        code = main(["synthesize", str(innovation_json), str(out),
                     "--tol-fb", "1e-6", "--rank-tol", "1e-2"])
        assert code == 4
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "FeedbackViolationError"
        assert payload["residual"] > 1e-6

    def test_option_defaults_are_the_library_defaults(self):
        args = _build_parser().parse_args(["synthesize", "in", "out"])
        defaults = inspect.signature(triangularize).parameters
        assert args.tol_fb == defaults["tol_fb"].default
        assert args.rank_tol == defaults["rank_tol"].default

    def test_budget_defaults_are_the_library_defaults(self):
        # identify searches with OptimizerConfig's defaults; benchmark and
        # reproduce sysid with the budget sysid.benchmark defaults to
        parser = _build_parser()
        args = parser.parse_args(["identify", "traj.csv", "fit.json",
                                  "--case", "pred_full", "--dims", "2,1,1,1,1"])
        assert (OptimizerConfig(restarts=args.restarts, maxiter=args.maxiter,
                                seed=args.seed) == OptimizerConfig())
        for argv in (["benchmark"], ["reproduce", "sysid"]):
            args = parser.parse_args(argv)
            assert (OptimizerConfig(restarts=args.restarts,
                                    maxiter=args.maxiter) == BENCHMARK_OPT)

    def test_triangular_input(self, tmp_path, example_triangular, capsys):
        # a triangular file is synthesized as given: no second projection
        # rotates its state basis, so the estimator is synthesize's exactly
        for t in (example_triangular, random_benchmark_system()):
            path, out = tmp_path / "tri.json", tmp_path / "est.json"
            save_model(t, path)
            assert main(["synthesize", str(path), str(out)]) == 0
            assert (f"partition: p1 = {t.p1}, p2 = {t.p2}"
                    in capsys.readouterr().out)
            est, ref = load_model(out), synthesize(t)
            for name in ("Atil", "Ktil", "Ctil", "D0"):
                assert np.array_equal(getattr(est, name), getattr(ref, name))
            h = [markov_parameters(e.Atil, e.Ktil, e.Ctil, 8)
                 for e in (est, ref)]
            assert np.max(np.abs(h[0] - h[1])) <= 1e-10


class TestSimulateAndFilter:
    def test_simulate_filter_pipeline(self, tmp_path, innovation_json,
                                      capsys):
        est = tmp_path / "est.json"
        traj = tmp_path / "traj.csv"
        pred = tmp_path / "pred.csv"
        assert main(["synthesize", str(innovation_json), str(est),
                     "--tol-fb", "1e-2", "--rank-tol", "1e-2"]) == 0
        assert main(["simulate", str(innovation_json), str(traj),
                     "--n", "500", "--seed", "3"]) == 0
        t = load_trajectory(traj)
        assert t.N == 500
        assert main(["filter", str(est), str(traj), str(pred)]) == 0
        lines = pred.read_text().splitlines()
        assert lines[0] == "yhat1"
        assert len(lines) == 501
        out = capsys.readouterr().out
        assert "MSE" in out and "VAF" in out

    @pytest.mark.parametrize("rows", [1, _CSV_CHUNK_ROWS - 1,
                                      _CSV_CHUNK_ROWS, _CSV_CHUNK_ROWS + 1])
    def test_prediction_bytes_are_savetxt_bytes(self, tmp_path, rows):
        # yhat = w exactly (no state feeds the output), so the special
        # values reach the prediction file; 1e300 stays out, as its square
        # overflows in the printed MSE and VAF (the trajectory writer's
        # test covers it)
        est = EstimatorModel(Atil=[[0.5]], Ktil=[[0.0]], Ctil=[[0.0]],
                             D0=[[1.0]])
        save_model(est, tmp_path / "est.json")
        w = np.random.default_rng(rows).standard_normal((rows, 1))
        special = [0.0, -0.0, 5e-324, 2.0 ** 53, -1.5][:rows]
        w[:len(special), 0] = special
        save_trajectory(Trajectory(y=w, w=w), tmp_path / "traj.csv")
        pred = tmp_path / "pred.csv"
        # one sample has no variance: VAF fails (exit 3) after the write
        code = main(["filter", str(tmp_path / "est.json"),
                     str(tmp_path / "traj.csv"), str(pred)])
        assert code == (3 if rows == 1 else 0)
        yhat = filter_signal(est, load_trajectory(tmp_path / "traj.csv").w)
        np.savetxt(tmp_path / "ref.csv", yhat, fmt="%.17g", delimiter=",",
                   header="yhat1", comments="")
        assert pred.read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_simulate_deterministic(self, tmp_path, innovation_json):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["simulate", str(innovation_json), str(path),
                         "--n", "100", "--seed", "5"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_trajectory_exits_2(self, tmp_path, innovation_json):
        est = tmp_path / "est.json"
        assert main(["synthesize", str(innovation_json), str(est),
                     "--tol-fb", "1e-2", "--rank-tol", "1e-2"]) == 0
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert main(["filter", str(est), str(bad),
                     str(tmp_path / "p.csv")]) == 2

    def test_gzip_trajectory_exits_2(self, tmp_path, innovation_json,
                                     capsys):
        est, traj = tmp_path / "est.json", tmp_path / "traj.csv"
        assert main(["synthesize", str(innovation_json), str(est),
                     "--tol-fb", "1e-2", "--rank-tol", "1e-2"]) == 0
        assert main(["simulate", str(innovation_json), str(traj),
                     "--n", "20", "--seed", "3"]) == 0
        gz = tmp_path / "traj.csv.gz"
        gz.write_bytes(gzip.compress(traj.read_bytes()))
        capsys.readouterr()
        assert main(["filter", str(est), str(gz),
                     str(tmp_path / "p.csv")]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ModelFormatError"

    @pytest.mark.parametrize("body", ["0,1.5,2\n1,abc,3\n", "0,1.5,2\n1,2\n"],
                             ids=["non-numeric", "ragged"])
    def test_bad_trajectory_body_exits_2(self, tmp_path, innovation_json,
                                         capsys, body):
        est = tmp_path / "est.json"
        assert main(["synthesize", str(innovation_json), str(est),
                     "--tol-fb", "1e-2", "--rank-tol", "1e-2"]) == 0
        bad = tmp_path / "bad.csv"
        bad.write_text("t,y1,w1\n" + body)
        capsys.readouterr()
        assert main(["filter", str(est), str(bad),
                     str(tmp_path / "p.csv")]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ModelFormatError"


class TestIdentify:
    def test_pred_partial_fit(self, tmp_path, innovation_json, capsys):
        traj = tmp_path / "traj.csv"
        truth = tmp_path / "truth.json"
        out = tmp_path / "fit.json"
        assert main(["simulate", str(innovation_json), str(traj),
                     "--n", "300", "--seed", "1"]) == 0
        # known blocks come from the (projected) triangular truth
        from ffest import innovation_form_details, triangularize
        from ffest.cli import _EXAMPLE_SYSTEM

        t = triangularize(innovation_form_details(_EXAMPLE_SYSTEM).model,
                          rank_tol=1e-2, tol_fb=1e-2)
        save_model(t, truth)
        code = main(["identify", str(traj), str(out),
                     "--case", "pred_partial", "--dims", "2,1,1,1,1",
                     "--truth", str(truth),
                     "--restarts", "1", "--maxiter", "30"])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["case"] == "pred_partial"
        assert len(doc["theta"]) == 7
        assert np.isfinite(doc["training_mse"])
        assert doc["estimator"]["kind"] == "estimator"
        assert doc["model"]["kind"] == "triangular_joint"

    def test_innovation_truth_is_projected(self, tmp_path, innovation_json,
                                           example_triangular):
        # an innovation-form truth is projected onto triangular form at the
        # given p2; for the worked example that is its triangular form
        traj = tmp_path / "traj.csv"
        tri = tmp_path / "tri.json"
        assert main(["simulate", str(innovation_json), str(traj),
                     "--n", "200", "--seed", "1"]) == 0
        save_model(example_triangular, tri)
        docs = []
        for truth in (innovation_json, tri):
            out = tmp_path / "fit.json"
            assert main(["identify", str(traj), str(out),
                         "--case", "gen_partial", "--dims", "2,1,1,1,1",
                         "--truth", str(truth),
                         "--restarts", "0", "--maxiter", "5"]) == 0
            docs.append(json.loads(out.read_text()))
        assert docs[0] == docs[1]

    def test_failed_starts_exit_5_with_reasons(self, tmp_path, capsys):
        # with Q22 = 0 the direct gain Q12 Q22^-1 does not exist, so the
        # objective is not finite at any start and no optimizer runs
        t = random_benchmark_system(n=2, p1=1, p2=1, p=1, q=1)
        traj, truth = tmp_path / "traj.csv", tmp_path / "truth.json"
        save_trajectory(simulate(assemble(t), SimConfig(N=100, seed=1)), traj)
        save_model(replace(t, Q12=np.zeros((1, 1)), Q22=np.zeros((1, 1))),
                   truth)
        code = main(["identify", str(traj), str(tmp_path / "fit.json"),
                     "--case", "pred_partial", "--dims", "2,1,1,1,1",
                     "--truth", str(truth), "--restarts", "2",
                     "--maxiter", "5"])
        assert code == 5
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "IdentificationError"
        assert payload["diagnostics"] == [
            f"start {i}: objective not finite at x0" for i in range(3)]

    @pytest.mark.parametrize("bad", [["--restarts", "-1"],
                                     ["--maxiter", "0"]])
    def test_bad_counts_exit_2(self, tmp_path, innovation_json, capsys, bad):
        traj, out = tmp_path / "traj.csv", tmp_path / "fit.json"
        assert main(["simulate", str(innovation_json), str(traj),
                     "--n", "50", "--seed", "1"]) == 0
        capsys.readouterr()
        assert main(["identify", str(traj), str(out), "--case", "pred_full",
                     "--dims", "2,1,1,1,1", *bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err)
        assert payload["error"] == "ValidationError"
        assert "restarts must be at least 0 and maxiter at least 1" in (
            payload["message"])
        assert not out.exists()

    def test_bad_dims_exit_2(self, tmp_path, innovation_json, capsys):
        traj = tmp_path / "traj.csv"
        assert main(["simulate", str(innovation_json), str(traj),
                     "--n", "50", "--seed", "1"]) == 0
        # p1 + p2 != n, and too few dims
        for dims in ("2,2,1,1,1", "10,4,6"):
            assert main(["identify", str(traj), str(tmp_path / "f.json"),
                         "--case", "pred_full", "--dims", dims]) == 2
            assert "error" in json.loads(capsys.readouterr().err)


class TestBenchmarkCommand:
    @pytest.mark.parametrize("argv, M, prefix", [
        (["benchmark"], 20, "benchmark"),
        (["reproduce", "sysid"], 5, "reproduce_sysid"),
    ])
    def test_option_defaults(self, argv, M, prefix):
        args = _build_parser().parse_args(argv)
        assert (args.M, args.prefix) == (M, prefix)
        assert (args.N, args.seed, args.restarts, args.maxiter, args.workers,
                args.out_dir) == (None, 0, 0, 20, 1, ".")

    def test_tiny_run_writes_csvs(self, tmp_path, capsys):
        code = main(["benchmark", "--M", "1", "--N", "60",
                     "--maxiter", "2", "--out-dir", str(tmp_path),
                     "--prefix", "tiny"])
        assert code == 0
        for suffix in ("rows", "table", "curve"):
            assert (tmp_path / f"tiny_{suffix}.csv").exists()
        out = capsys.readouterr().out
        assert "case0" in out

    @pytest.mark.parametrize("command", [["benchmark"], ["reproduce", "sysid"]])
    @pytest.mark.parametrize("bad", [["--M", "0"], ["--N", "0"],
                                     ["--N", "60", "--N", "-5"],
                                     # one tiny repetition, so that a run
                                     # that ignores the count ends soon
                                     ["--M", "1", "--N", "20",
                                      "--restarts", "-1"],
                                     ["--M", "1", "--N", "20",
                                      "--maxiter", "0"],
                                     ["--M", "1", "--N", "20",
                                      "--workers", "0"]])
    def test_non_positive_sizes_exit_2(self, tmp_path, capsys, command, bad):
        assert main([*command, *bad, "--out-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err)
        assert payload["error"] == "ValidationError"
        assert not list(tmp_path.iterdir())

    def test_failed_cells_are_reported(self, tmp_path, capsys, monkeypatch):
        # every fit fails: the identified cases have no successful rows
        def failing(*args, **kwargs):
            raise IdentificationError("stub: all optimizer starts diverged")

        monkeypatch.setattr("ffest.sysid.identify", failing)
        assert main(["benchmark", "--M", "1", "--N", "60",
                     "--out-dir", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        for case in CASES:
            assert f"{case:>16} N=60    no successful repetitions" in lines
        assert sum("no successful repetitions" in ln for ln in lines) == 4
        rows = (tmp_path / "benchmark_rows.csv").read_text().splitlines()
        assert all(ln.endswith(",stub: all optimizer starts diverged")
                   for ln in rows[2:])


class TestReproduce:
    def test_sysid_runs(self, tmp_path, capsys):
        assert main(["reproduce", "sysid", "--M", "1", "--N", "80",
                     "--maxiter", "2", "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        for head in ("  theta true      = ", "  theta estimated = ",
                     "  estimator coupling Atil12 = theta + "):
            assert sum(ln.startswith(head) for ln in out.splitlines()) == 1
        for suffix in ("rows", "table", "curve"):
            assert (tmp_path / f"reproduce_sysid_{suffix}.csv").exists()

    def test_sec5_golden_values(self, capsys):
        assert main(["reproduce", "sec5"]) == 0
        out = capsys.readouterr().out
        assert "MISMATCH" not in out
        assert "all golden values reproduced" in out

    def test_sec5_golden_mismatch_exits_1(self, capsys, monkeypatch):
        golden = dict(ffest.cli._GOLDEN_ESTIMATOR, D0=[[2.0]])
        monkeypatch.setattr(ffest.cli, "_GOLDEN_ESTIMATOR", golden)
        assert main(["reproduce", "sec5"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "GOLDEN VALUE MISMATCH"
        assert lines[-2].startswith("  max |diff| vs reference estimator: ")
        assert lines[-2].endswith(" (MISMATCH)")

    def test_sec5_feedback_check_and_reference_signs(self, capsys):
        assert main(["reproduce", "sec5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        feedback = [ln for ln in lines if ln.startswith("feedback check:")]
        assert len(feedback) == 1
        assert "free = True" in feedback[0]
        assert "p1 = 1, p2 = 1" in feedback[0]
        # the triangular blocks print in the reference signs: A12 = +0.81
        a = lines.index("A (triangular) =")
        assert lines[a + 1].split() == ["0.8537", "0.8084"]

    def test_sec5_rejects_benchmark_options(self, capsys):
        # the benchmark options belong to "reproduce sysid" alone
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "sec5", "--M", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --M 3" in capsys.readouterr().err

    def test_sec5_deterministic(self, capsys):
        assert main(["reproduce", "sec5"]) == 0
        first = capsys.readouterr().out
        assert main(["reproduce", "sec5"]) == 0
        assert capsys.readouterr().out == first

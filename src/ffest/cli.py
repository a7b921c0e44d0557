"""Command-line surface: file-based model/trajectory exchange.

Exit codes: 0 success, 2 parse/validation failure, 3 solver failure,
4 feedback-free violation, 5 identification failure. On failure a
machine-readable JSON object is written to stderr; stdout stays
human-readable.
"""

import argparse
import json
import os
import sys

import numpy as np

from .errors import (
    FeedbackViolationError,
    FfestError,
    IdentificationError,
    ModelFormatError,
    ValidationError,
)
from .estimator import filter_signal, synthesize
from .metrics import mse, vaf_components
from .models import (
    EstimatorModel,
    InnovationJointModel,
    StateSpaceModel,
    TriangularJointModel,
    assemble,
    flip_state_signs,
    load_model,
    model_to_dict,
    save_model,
)
from .realization import (
    _RANK_TOL,
    _TOL_FB,
    check_feedback_free,
    innovation_form_details,
    triangularize,
)
from .simulation import (
    SimConfig,
    _write_csv,
    load_trajectory,
    save_trajectory,
    simulate,
)
from .sysid import (
    BENCHMARK_OPT,
    CASES,
    Dims,
    OptimizerConfig,
    SingleEntryParameterization,
    benchmark,
    build_parameterization,
    identify,
    known_blocks,
    random_benchmark_system,
    write_benchmark_curve_csv,
    write_benchmark_rows_csv,
    write_benchmark_table_csv,
)

__all__ = ["main"]


def _print_matrix(name, M):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    print(f"{name} =")
    for row in M:
        print("  " + "  ".join(f"{v:10.4f}" for v in row))


def _fail_payload(exc):
    payload = {"error": type(exc).__name__, "message": str(exc)}
    for attr in ("residual", "p1", "p2", "spectral_radius", "diagnostics"):
        v = getattr(exc, attr, None)
        if v is not None:
            payload[attr] = v
    return payload


def _load(path, *kinds):
    """The model stored in ``path``, which must be of one of ``kinds``."""
    m = load_model(path)
    if not isinstance(m, kinds):
        expected = " or ".join(k.__name__ for k in kinds)
        raise ModelFormatError(
            f"{path}: expected {expected}, got {type(m).__name__}")
    return m


# --- subcommand handlers --------------------------------------------------

def cmd_innovation_form(args):
    res = innovation_form_details(_load(args.input, StateSpaceModel))
    for name, M in (("P", res.P), ("Cbar", res.Cbar),
                    ("Lambda0", res.Lambda0), ("Pi", res.Pi),
                    ("Delta", res.Delta), ("K", res.K)):
        _print_matrix(name, M)
    save_model(res.model, args.output)
    print(f"wrote innovation_joint model to {args.output}")
    return 0


def cmd_synthesize(args):
    t = _load(args.input, InnovationJointModel, TriangularJointModel)
    if isinstance(t, InnovationJointModel):
        t = triangularize(t, rank_tol=args.rank_tol, tol_fb=args.tol_fb)
    est = synthesize(t)
    print(f"partition: p1 = {t.p1}, p2 = {t.p2}")
    for name, M in (("Atil", est.Atil), ("Ktil", est.Ktil),
                    ("Ctil", est.Ctil), ("D0", est.D0)):
        _print_matrix(name, M)
    save_model(est, args.output)
    print(f"wrote estimator model to {args.output}")
    return 0


def cmd_simulate(args):
    m = _load(args.model, StateSpaceModel, InnovationJointModel)
    cfg = SimConfig(N=args.n, seed=args.seed, init=args.init)
    traj = simulate(m, cfg)
    save_trajectory(traj, args.output)
    print(f"wrote {traj.N} samples to {args.output} (seed {args.seed})")
    return 0


def cmd_filter(args):
    est = _load(args.estimator, EstimatorModel)
    traj = load_trajectory(args.trajectory)
    yhat = filter_signal(est, traj.w)
    _write_csv(args.output, ",".join(f"yhat{i+1}" for i in range(est.p)),
               yhat, ",".join(["%.17g"] * est.p))
    err = mse(traj.y, yhat)
    vaf = vaf_components(traj.y, yhat)
    print(f"MSE = {err:.6f}")
    print("VAF = " + "  ".join(f"{v:.2f}%" for v in vaf))
    print(f"wrote predictions to {args.output}")
    return 0


def cmd_identify(args):
    traj = load_trajectory(args.trajectory)
    dims = [int(v) for v in args.dims.split(",")]
    if len(dims) != 5:
        raise ValidationError(f"--dims needs n,p1,p2,p,q, got {args.dims!r}")
    dims = Dims(*dims)
    fixed = None
    if args.truth is not None:
        truth = _load(args.truth, TriangularJointModel, InnovationJointModel)
        if isinstance(truth, InnovationJointModel):
            truth = triangularize(truth, tol_fb=np.inf, p2=dims.p2)
        fixed = known_blocks(args.case, truth)
    par = build_parameterization(args.case, dims, fixed=fixed)
    opt = OptimizerConfig(restarts=args.restarts, maxiter=args.maxiter,
                          seed=args.seed)
    fit = identify(par, traj, opt=opt)
    doc = {
        "case": args.case,
        "theta": list(fit.theta),
        "training_mse": fit.training_mse,
        "iterations": fit.iterations,
        "converged": fit.converged,
        "restarts_used": fit.restarts_used,
        "estimator": model_to_dict(fit.estimator),
        "model": model_to_dict(fit.model),
    }
    with open(args.output, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"case {args.case}: {par.theta_dim} parameters, "
          f"training MSE = {fit.training_mse:.6f}")
    print(f"wrote fit result to {args.output}")
    return 0


def cmd_benchmark(args):
    Ns = args.N or [150, 1000]  # --N is repeatable, so argparse cannot default it
    opt = OptimizerConfig(restarts=args.restarts, maxiter=args.maxiter)
    result = benchmark(random_benchmark_system(), Ns=tuple(Ns), M=args.M,
                       seed=args.seed, opt=opt, workers=args.workers)
    paths = {
        "rows": os.path.join(args.out_dir, f"{args.prefix}_rows.csv"),
        "table": os.path.join(args.out_dir, f"{args.prefix}_table.csv"),
        "curve": os.path.join(args.out_dir, f"{args.prefix}_curve.csv"),
    }
    write_benchmark_rows_csv(result, paths["rows"])
    write_benchmark_table_csv(result, paths["table"])
    write_benchmark_curve_csv(result, paths["curve"])
    print(f"benchmark: {args.M} repetitions, N in {list(Ns)}, "
          f"seed {args.seed}")
    for (case, N), agg in sorted(result.aggregate.items()):
        if agg is None:
            print(f"  {case:>14} N={N:<5} no successful repetitions")
            continue
        tm = ("     --" if agg["training_mse"] is None
              else f"{agg['training_mse']:7.3f}")
        print(f"  {case:>14} N={N:<5} train MSE {tm}  "
              f"val MSE {agg['validation_mse']:7.3f}  "
              f"mean VAF {agg['mean_vaf']:6.2f}%")
    for name, path in paths.items():
        print(f"wrote {name} CSV to {path}")
    return 0


# --- reproduction commands ------------------------------------------------

# worked two-state example: driven system and its reference intermediates
_EXAMPLE_SYSTEM = StateSpaceModel(
    A=np.array([[1.08, -0.23], [0.58, 0.27]]),
    B=np.array([[-0.56, -1.4], [-0.56, -0.6]]),
    C=np.array([[-0.25, 2.25], [1.24, -1.25]]),
    D=np.array([[-0.14, -1.0], [0.0, -1.0]]),
    p=1, q=1,
)

_GOLDEN_CHAIN = {
    "P": [[11.34, 9.22], [9.22, 7.96]],
    "Cbar": [[17.24, 15.28], [3.79, 2.47]],
    "Lambda0": [[31.64, 3.72], [3.72, 2.28]],
    "Pi": [[11.1, 8.98], [8.98, 7.71]],
    "Delta": [[2.0, 1.0], [1.0, 1.0]],
    "K": [[0.5, 0.9], [0.49, 0.11]],
}

# triangular form and estimator in the reference state signs (those of
# example_triangular_model), reference values at two decimals
_GOLDEN_TRIANGULAR = {
    "A": [[0.85, 0.81], [0.0, 0.5]],
    "K": [[-0.7, -0.71], [0.0, -0.56]],
    "C": [[-1.41, 1.77], [0.0, -1.76]],
}
_GOLDEN_ESTIMATOR = {
    "Atil": [[0.85, -1.69], [0.0, -0.49]],
    "Ktil": [[-1.42], [-0.56]],
    "Ctil": [[-1.41, 3.53]],
    "D0": [[1.0]],
}


def _compare(label, suffix, model, golden, tol):
    """Print ``model``'s ``golden`` matrices and their largest error."""
    diff = 0.0
    for name, ref in golden.items():
        M = getattr(model, name)
        _print_matrix(name + suffix, M)
        diff = max(diff, float(np.max(np.abs(M - np.asarray(ref)))))
    good = diff <= tol
    print(f"  max |diff| vs reference {label}: {diff:.4f} "
          f"({'ok' if good else 'MISMATCH'})")
    return good


def cmd_reproduce_sec5(args):
    print("two-state worked example: driven model -> innovation form "
          "-> triangular form -> estimator")
    res = innovation_form_details(_EXAMPLE_SYSTEM)
    ok = all([_compare(name, "", res, {name: ref}, 0.02)
              for name, ref in _GOLDEN_CHAIN.items()])

    report = check_feedback_free(res.model, tol_fb=1e-2)
    print(f"feedback check: free = {report.free}, residual "
          f"{report.residual:.2e}, p1 = {report.p1}, p2 = {report.p2}")

    t = _example_triangular(res.model)
    ok &= _compare("triangular form", " (triangular)", t,
                   _GOLDEN_TRIANGULAR, 0.02)
    ok &= _compare("estimator", "", synthesize(t), _GOLDEN_ESTIMATOR, 0.03)
    print("all golden values reproduced" if ok
          else "GOLDEN VALUE MISMATCH")
    return 0 if ok else 1


def _example_triangular(inn: InnovationJointModel) -> TriangularJointModel:
    """Triangular form of the worked example's innovation model ``inn`` in
    the reference signs (second-decimal agreement with the printed blocks)."""
    t = triangularize(inn, rank_tol=1e-2, tol_fb=1e-2)
    return flip_state_signs(t, [-1.0, 1.0])


def example_triangular_model() -> TriangularJointModel:
    """Triangular form of the worked example, in the reference signs."""
    return _example_triangular(innovation_form_details(_EXAMPLE_SYSTEM).model)


def cmd_reproduce_sysid(args):
    print("scalar family: one free entry of the triangular transition "
          "matrix, fitted by prediction error")
    base = example_triangular_model()
    theta_true = float(base.A12[0, 0])
    par = SingleEntryParameterization(base, block="A12", index=(0, 0))
    traj = simulate(assemble(base), SimConfig(N=1000, seed=args.seed))
    fit = identify(par, traj, opt=OptimizerConfig(restarts=2, maxiter=200,
                                                  seed=args.seed))
    atil12 = float(fit.estimator.Atil[0, 1])
    print(f"  theta true      = {theta_true:.4f}")
    print(f"  theta estimated = {fit.theta[0]:.4f} "
          f"(training MSE {fit.training_mse:.4f})")
    print(f"  estimator coupling Atil12 = theta + {atil12 - fit.theta[0]:.4f}")

    print("reduced-scale benchmark on the documented random 10-state system")
    return cmd_benchmark(args)


# --- parser ---------------------------------------------------------------

def _build_parser():
    p = argparse.ArgumentParser(
        prog="ffest",
        description="Feedback-free estimator synthesis for joint "
                    "stochastic state-space models",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("innovation-form",
                       help="driven model JSON -> innovation-form JSON")
    s.add_argument("input")
    s.add_argument("output")
    s.set_defaults(func=cmd_innovation_form)

    s = sub.add_parser("synthesize",
                       help="innovation or triangular JSON -> estimator JSON")
    s.add_argument("input")
    s.add_argument("output")
    s.add_argument("--tol-fb", type=float, default=_TOL_FB,
                   help="feedback-free residual tolerance (innovation input)")
    s.add_argument("--rank-tol", type=float, default=_RANK_TOL,
                   help="partition rank tolerance (innovation input)")
    s.set_defaults(func=cmd_synthesize)

    s = sub.add_parser("simulate", help="model JSON -> trajectory CSV")
    s.add_argument("model")
    s.add_argument("output")
    s.add_argument("--n", type=int, required=True, help="sample count")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--init", default="stationary",
                   choices=["stationary", "zero"])
    s.set_defaults(func=cmd_simulate)

    s = sub.add_parser("filter",
                       help="estimator JSON + trajectory CSV -> "
                            "prediction CSV")
    s.add_argument("estimator")
    s.add_argument("trajectory")
    s.add_argument("output")
    s.set_defaults(func=cmd_filter)

    s = sub.add_parser("identify",
                       help="fit a parameterized estimator/generator to a "
                            "trajectory")
    s.add_argument("trajectory")
    s.add_argument("output", help="fit-result JSON path")
    s.add_argument("--case", required=True, choices=CASES)
    s.add_argument("--dims", required=True,
                   help="n,p1,p2,p,q of the parameterization")
    s.add_argument("--truth", default=None,
                   help="model JSON providing the known blocks "
                        "(required for all cases except pred_full)")
    s.add_argument("--restarts", type=int, default=OptimizerConfig.restarts)
    s.add_argument("--maxiter", type=int, default=OptimizerConfig.maxiter)
    s.add_argument("--seed", type=int, default=OptimizerConfig.seed)
    s.set_defaults(func=cmd_identify)

    bench = sub.add_parser("benchmark",
                           help="identification comparison on the "
                                "documented random system")
    bench.set_defaults(func=cmd_benchmark)
    repro = sub.add_parser("reproduce",
                           help="rerun a documented example end to end")
    examples = repro.add_subparsers(dest="example", required=True)
    examples.add_parser("sec5", help="the worked example's golden values"
                        ).set_defaults(func=cmd_reproduce_sec5)
    repro_sysid = examples.add_parser(
        "sysid", help="scalar identification, then a reduced benchmark")
    repro_sysid.set_defaults(func=cmd_reproduce_sysid)
    # the benchmark options; "reproduce sysid" runs it at a reduced M
    for s, M, prefix in ((bench, 20, "benchmark"),
                         (repro_sysid, 5, "reproduce_sysid")):
        s.add_argument("--M", type=int, default=M,
                       help="repetitions per cell")
        s.add_argument("--N", type=int, action="append", default=None,
                       help="training sample size (repeatable)")
        s.add_argument("--seed", type=int, default=0)
        s.add_argument("--restarts", type=int, default=BENCHMARK_OPT.restarts)
        s.add_argument("--maxiter", type=int, default=BENCHMARK_OPT.maxiter)
        s.add_argument("--workers", type=int, default=1)
        s.add_argument("--out-dir", default=".")
        s.add_argument("--prefix", default=prefix)

    return p


# exit code per error type; the first matching type wins
_EXIT_CODES = {
    FeedbackViolationError: 4,
    IdentificationError: 5,
    ValidationError: 2,  # includes ModelFormatError
    FfestError: 3,
    OSError: 2,
    ValueError: 2,  # includes json.JSONDecodeError
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        json.dump(_fail_payload(exc), sys.stderr)
        sys.stderr.write("\n")
        return next(code for cls, code in _EXIT_CODES.items()
                    if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())

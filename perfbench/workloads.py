"""The three benchmark workloads.

Each workload is a class. Its constructor is the set-up: it generates every
input from the workload seed, together with the oracle values the outputs
are checked against. ``run_pass`` does the workload's fixed work once, one
operation at a time, and returns a :class:`PassResult`; between operations
it lets a :class:`calibration.Calibration` time its kernel, and leaves that
time out of the pass. Every call into the
library goes through a module attribute at call time (``sysid.benchmark``,
``realization.triangularize``, ...) so that a :class:`tracer.Tracer` sees it.
"""

import contextlib
import io
import os
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np
from scipy.signal import place_poles

from ffest import FfestError, cli, estimator, models, realization, simulation, sysid

TYPED_ERRORS = (FfestError, np.linalg.LinAlgError)


@dataclass
class PassResult:
    wall_s: float
    op_s: list                      # latency of every operation, seconds
    cpu_s: float = 0.0              # CPU time of this process in the pass
    attempted: int = 0
    failed: int = 0
    wrong: list = field(default_factory=list)   # outputs that failed a check
    errors: list = field(default_factory=list)  # typed errors raised
    quality: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)   # values computed here


def _rng(seed, *key):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _orthogonal(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


# --- sysid-sweep -------------------------------------------------------------

class SysidSweep:
    """One repetition of the acceptance benchmark under its documented budget.

    Operations are the benchmark's cells (case, N); latency is timed per
    identification fit, the unit of work a user waits for.
    """

    NS = (150, 1000)
    N_VAL = 1000

    def __init__(self, seed, workdir):
        self.seed = seed
        self.system = sysid.random_benchmark_system()

    def run_pass(self, tracer, cal):
        fits = []
        fit_nit, fit_converged = [], []
        identify = sysid.identify

        def timed_identify(*args, **kwargs):
            cal.maybe_sample()
            tracer.next_op()
            t0 = perf_counter()
            fit = identify(*args, **kwargs)
            fits.append(perf_counter() - t0)
            fit_nit.append(fit.iterations)
            fit_converged.append(fit.converged)
            return fit

        sysid.identify = timed_identify
        try:
            w0, c0 = cal.clock()
            result = sysid.benchmark(self.system, Ns=self.NS, M=1,
                                     N_val=self.N_VAL, workers=1,
                                     seed=self.seed)
            w1, c1 = cal.clock()
        finally:
            sysid.identify = identify

        res = PassResult(wall_s=w1 - w0, op_s=fits, cpu_s=c1 - c0,
                         attempted=len(result.rows))
        res.layer["sysid.identify.nit"] = sum(fit_nit)
        res.layer["sysid.identify.converged_frac"] = (
            float(np.mean(fit_converged)) if fit_converged else 0.0)
        by_cell = {(r.case, r.N): r for r in result.rows}
        excess = []
        for row in result.rows:
            if row.error is not None:
                res.failed += 1
                res.errors.append(f"{row.case} N={row.N}: {row.error}")
                continue
            if row.case == "case0":
                continue
            ref = by_cell[("case0", row.N)]
            if ref.error is not None:
                continue
            excess.append(row.validation_mse / ref.validation_mse - 1.0)
            # the optimal estimator must beat every identified one (8a)
            if not row.validation_mse > ref.validation_mse:
                res.failed += 1
                res.wrong.append(
                    f"{row.case} N={row.N}: validation MSE "
                    f"{row.validation_mse:.6g} <= case0 {ref.validation_mse:.6g}")
        res.quality["excess_mse"] = float(np.mean(excess)) if excess else None
        return res


# --- synth-batch -------------------------------------------------------------

class SynthBatch:
    """Random feedback-free systems through the synthesis pipeline.

    Each operation is innovation_form_details -> check_feedback_free ->
    triangularize -> synthesize on one driven model hidden under a random
    orthogonal similarity. The oracle is ``synthesize`` on the known
    triangular model: the first Markov parameters and D0 must agree.
    """

    RANDOM_SYSTEMS = 200
    SIZES = range(2, 31)
    HARD_SEED = 7            # fixed: the hard share is the same for every seed
    HARD_ZEROS = (1, 2, 3, 4, 5)   # spectral zero of w at radius 1 - 10^-k
    MARKOV_COUNT = 10
    # Output check, relative to 1 + the largest oracle entry: the Markov
    # parameters may differ by what the library's own tolerances allow,
    # whichever is larger: blocks of relative size tol_fb = 1e-6 zeroed by
    # triangularize, accumulated over MARKOV_COUNT steps; or the Riccati
    # residual tolerance 1e-8 times the condition 1 / (1 - rho), rho being
    # the largest zero of the joint spectrum (spectral radius of A - K C)
    TOL_FB = 1e-6
    RICCATI_TOL = 1e-8

    def __init__(self, seed, workdir):
        rng = _rng(seed, 1)
        sizes = rng.permutation(np.resize(np.array(self.SIZES),
                                          self.RANDOM_SYSTEMS))
        self.cases = []
        for n in sizes:
            n = int(n)
            p, q = (int(v) for v in rng.integers(1, 4, size=2))
            p2 = int(rng.integers(1, max(1, n // 3) + 1))
            while True:
                try:
                    t = sysid.random_benchmark_system(
                        seed=int(rng.integers(2**32)), n=n, p1=n - p2,
                        p2=p2, p=p, q=q)
                    break
                except RuntimeError:   # rejection sampling gave up; redraw
                    continue
            self.cases.append(self._hide(t, rng, f"n={n}"))
        hard_rng = _rng(self.HARD_SEED, 2)
        base = sysid.random_benchmark_system(seed=self.HARD_SEED, n=4, p1=2,
                                             p2=2, p=1, q=1)
        U = _orthogonal(hard_rng, base.n)
        for k in self.HARD_ZEROS:
            poles = [1.0 - 10.0 ** -k, 0.5]
            K22 = place_poles(base.A22.T, base.C22.T, poles).gain_matrix.T
            self.cases.append(self._hide(replace(base, K22=K22), hard_rng,
                                         f"hard k={k}", U=U))

    def _hide(self, t, rng, label, U=None):
        """Driven form (B = K L, D = L, L L' = Q) under a similarity U."""
        joint = models.assemble(t)
        if U is None:
            U = _orthogonal(rng, joint.n)
        L = np.linalg.cholesky(joint.Q)
        driven = models.StateSpaceModel(
            A=U @ joint.A @ U.T, B=U @ joint.K @ L, C=joint.C @ U.T, D=L,
            p=joint.p, q=joint.q)
        oracle = estimator.synthesize(t)
        markov = realization.markov_parameters(
            oracle.Atil, oracle.Ktil, oracle.Ctil, self.MARKOV_COUNT)
        rho = np.max(np.abs(np.linalg.eigvals(joint.A - joint.K @ joint.C)))
        scale = 1.0 + max(np.max(np.abs(markov)), np.max(np.abs(oracle.D0)))
        return {"label": label, "driven": driven, "K": U @ joint.K,
                "markov": markov, "D0": oracle.D0,
                "markov_tol": scale * max(self.TOL_FB * self.MARKOV_COUNT,
                                          self.RICCATI_TOL / (1.0 - rho))}

    def run_pass(self, tracer, cal):
        res = PassResult(wall_s=0.0, op_s=[])
        markov_err, gain_err, fb_resid = [], [], []
        w0, c0 = cal.clock()
        for case in self.cases:
            cal.maybe_sample()
            tracer.next_op()
            res.attempted += 1
            inn = report = est = None
            t0 = perf_counter()
            try:
                inn = realization.innovation_form_details(case["driven"])
                report = realization.check_feedback_free(inn.model)
                tri = realization.triangularize(inn.model)
                est = estimator.synthesize(tri)
            except TYPED_ERRORS as exc:
                error = f"{case['label']}: {type(exc).__name__}: {exc}"
            res.op_s.append(perf_counter() - t0)
            if inn is not None:
                gain_err.append(float(np.max(np.abs(inn.K - case["K"]))))
            if report is not None:
                fb_resid.append(report.residual)
            if est is None:
                res.failed += 1
                res.errors.append(error)
            else:
                err = self._markov_error(est, case)
                markov_err.append(err)
                if not err <= case["markov_tol"]:
                    res.failed += 1
                    res.wrong.append(f"{case['label']}: Markov error {err:.3g}"
                                     f" > {case['markov_tol']:.3g}")
        w1, c1 = cal.clock()
        res.wall_s, res.cpu_s = w1 - w0, c1 - c0
        res.quality["markov_err_max"] = max(markov_err) if markov_err else None
        res.layer["matkernel.riccati_gain_err_max"] = max(gain_err, default=0.0)
        res.layer["realization.feedback_residual_max"] = max(fb_resid,
                                                             default=0.0)
        return res

    def _markov_error(self, est, case):
        got = realization.markov_parameters(est.Atil, est.Ktil, est.Ctil,
                                            self.MARKOV_COUNT)
        return float(max(np.max(np.abs(got - case["markov"])),
                         np.max(np.abs(est.D0 - case["D0"]))))


# --- desk-scale --------------------------------------------------------------

class DeskScale:
    """The file-based user path through ``ffest.cli.main``, at N = 10^5.

    simulate -> synthesize -> filter, each reading and writing files, then
    innovation diagnostics on the loaded trajectory. Oracles: the analytic
    error floor tr(Q11 - Q12 Q22^-1 Q21), exact because K11 = 0, and the
    innovation identity residual.
    """

    N = 100_000
    FLOOR_GAP_TOL = 0.05
    ES_IDENTITY_TOL = 1e-8

    def __init__(self, seed, workdir):
        self.seed = seed
        t = sysid.random_benchmark_system()
        self.joint = models.assemble(t)
        D0 = estimator.compute_d0(t.Q12, t.Q22)
        self.floor = float(np.trace(t.Q11 - D0 @ t.Q12.T))
        self.paths = {k: os.path.join(workdir, f)
                      for k, f in (("joint", "joint.json"), ("traj", "traj.csv"),
                                   ("est", "est.json"), ("pred", "pred.csv"))}
        models.save_model(self.joint, self.paths["joint"])

    def _cli(self, *argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(list(argv))

    def run_pass(self, tracer, cal):
        p = self.paths
        steps = [
            ("simulate", lambda: self._cli("simulate", p["joint"], p["traj"],
                                           "--n", str(self.N),
                                           "--seed", str(self.seed))),
            ("synthesize", lambda: self._cli("synthesize", p["joint"],
                                             p["est"])),
            ("filter", lambda: self._cli("filter", p["est"], p["traj"],
                                         p["pred"])),
            ("diagnostics", self._diagnostics),
        ]
        res = PassResult(wall_s=0.0, op_s=[])
        w0, c0 = cal.clock()
        out = {}
        for name, step in steps:
            cal.maybe_sample()
            tracer.next_op()
            res.attempted += 1
            t0 = perf_counter()
            try:
                out[name] = step()
            except TYPED_ERRORS as exc:
                out[name] = exc
            res.op_s.append(perf_counter() - t0)
        w1, c1 = cal.clock()
        res.wall_s, res.cpu_s = w1 - w0, c1 - c0

        for name, _ in steps[:3]:
            if out[name] != 0:
                res.failed += 1
                res.errors.append(f"ffest {name} exited with {out[name]}")
        if out["simulate"] == 0:
            res.layer["simulation.csv_bytes"] = os.path.getsize(p["traj"])
        diag = out["diagnostics"]
        if isinstance(diag, Exception):
            res.failed += 1
            res.errors.append(f"diagnostics: {type(diag).__name__}: {diag}")
            return res
        traj, report = diag
        resid = report.es_identity_residual
        if resid is None or not resid <= self.ES_IDENTITY_TOL:
            res.failed += 1
            res.wrong.append(f"es identity residual {resid}")
        if out["filter"] == 0:
            yhat = np.loadtxt(p["pred"], delimiter=",", skiprows=1, ndmin=2)
            err = float(np.mean(np.sum((traj.y - yhat) ** 2, axis=1)))
            gap = abs(err - self.floor) / self.floor
            res.quality["floor_gap"] = gap
            if not gap <= self.FLOOR_GAP_TOL:
                res.wrong.append(f"filter MSE {err:.6g} vs floor "
                                 f"{self.floor:.6g}")
                res.failed += 1
        return res

    def _diagnostics(self):
        traj = simulation.load_trajectory(self.paths["traj"])
        return traj, simulation.innovation_diagnostics(self.joint, traj)


WORKLOADS = {
    "sysid-sweep": SysidSweep,
    "synth-batch": SynthBatch,
    "desk-scale": DeskScale,
}

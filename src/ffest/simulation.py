"""Seeded Gaussian trajectory generation and innovation diagnostics.

Reproducibility contract: the generator is numpy's PCG64 seeded through
``SeedSequence(entropy=seed)``; trajectory ``i`` of a batch uses
``SeedSequence(entropy=seed, spawn_key=(i,))``. Same (model, config) in,
bit-identical trajectory out at any BLAS thread count, stationary start
included (``test_bits_do_not_depend_on_blas_threads`` checks one and two).
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (FfestError, IndefiniteCovarianceError, ModelFormatError,
                     ValidationError)
from .estimator import _state_loop, compute_d0, joint_one_step_prediction
from .matkernel import solve_discrete_lyapunov
from .models import InnovationJointModel, StateSpaceModel, Trajectory

__all__ = [
    "SimConfig",
    "simulate",
    "trajectory_rng",
    "innovation_diagnostics",
    "DiagnosticsReport",
    "save_trajectory",
    "load_trajectory",
]

LOW_SAMPLE_N = 1000
_MAX_LAG = 20        # innovation autocorrelation lags 1.._MAX_LAG
_STATE_MAX_LAG = 10  # innovation-state correlation lags 0.._STATE_MAX_LAG


@dataclass
class SimConfig:
    """Sample count, seed and initialization mode.

    ``init`` is "stationary" (draw x(0) from the stationary state
    covariance), "zero", or an explicit state vector.
    """

    N: int
    seed: int = 0
    init: object = "stationary"

    def __post_init__(self):
        if self.N < 1:
            raise ValidationError(f"N must be >= 1, got {self.N}")
        if isinstance(self.init, str):
            if self.init not in ("stationary", "zero"):
                raise ValidationError(
                    f"init must be 'stationary', 'zero' or a state vector, "
                    f"got {self.init!r}")
            return
        try:
            x0 = np.asarray(self.init, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                f"init is not a state vector: {exc}") from exc
        if not np.all(np.isfinite(x0)):
            raise ValidationError("init has non-finite entries")


def trajectory_rng(seed, index=None):
    """Deterministic per-trajectory generator; index selects a batch member.

    ``index`` may be an int or a tuple of ints (hierarchical batch keys).
    """
    if index is None:
        ss = np.random.SeedSequence(entropy=seed)
    else:
        key = tuple(index) if isinstance(index, (tuple, list)) else (index,)
        ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.default_rng(ss)


def _noise_factor(Q):
    """Symmetric-factor transform: L with L L^T = Q (PSD fallback)."""
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    try:
        return np.linalg.cholesky(Q)
    except np.linalg.LinAlgError:
        pass
    lam, V = np.linalg.eigh(0.5 * (Q + Q.T))
    if np.min(lam) < -1e-8 * (1.0 + np.max(np.abs(lam))):
        raise IndefiniteCovarianceError(
            f"noise covariance is indefinite (eigenvalue {np.min(lam):.3g})"
        )
    return V @ np.diag(np.sqrt(np.clip(lam, 0.0, None)))


def simulate(model, cfg: SimConfig, rng=None) -> Trajectory:
    """Generate a seeded Gaussian trajectory from either model form.

    Exports the state path and the noise draws. For an innovation model the
    exported ``e`` is the (p+q)-dimensional innovation; for a driven model
    it is the m-dimensional normalized input noise.
    """
    if rng is None:
        rng = trajectory_rng(cfg.seed)
    if isinstance(model, InnovationJointModel):
        A, C, D = model.A, model.C, np.eye(model.p + model.q)
        G = model.K  # state noise enters through the gain
        L = _noise_factor(model.Q)
        state_noise_cov = model.K @ model.Q @ model.K.T
    elif isinstance(model, StateSpaceModel):
        A, C, D = model.A, model.C, model.D
        G = model.B
        L = np.eye(model.m)
        state_noise_cov = model.B @ model.B.T
    else:
        raise TypeError(f"cannot simulate {type(model).__name__}")

    n = A.shape[0]
    N, p = cfg.N, model.p
    noise_dim = L.shape[0]
    e = rng.standard_normal((N, noise_dim)) @ L.T

    x0 = cfg.init  # an explicit state vector unless one of the two modes
    if isinstance(x0, str) and x0 == "stationary":
        P = solve_discrete_lyapunov(A, state_noise_cov)
        x0 = _noise_factor(P) @ rng.standard_normal(n)
    elif isinstance(x0, str) and x0 == "zero":
        x0 = None
    elif np.size(x0) != n:
        raise ValidationError(
            f"init has {np.size(x0)} entries, the model has {n} states")
    X = _state_loop(A, G, e, x0)
    # row-wise matvecs, as C @ x(t) was; X @ C.T would change the last bits
    Z = (C @ X[..., None] + D @ e[..., None])[..., 0]
    return Trajectory(y=Z[:, :p], w=Z[:, p:], x=X, e=e)


@dataclass
class DiagnosticsReport:
    """Whiteness/orthogonality check results with +-3/sqrt(N) bands."""

    band: float
    e_autocorr: np.ndarray          # lags 1..20, max |corr| per lag
    e_state_corr: np.ndarray        # lags 0..10, max |corr| per lag
    whiteness_ok: bool
    state_orthogonality_ok: bool
    es_identity_residual: float | None
    low_sample_warning: bool
    notes: list = field(default_factory=list)

    @property
    def ok(self):
        return self.whiteness_ok and self.state_orthogonality_ok


def _end_run(c):
    """Per column of ``c``, the length of the run of equal values that
    ends it."""
    differs = (c != c[-1])[::-1]
    return np.where(differs.any(axis=0), differs.argmax(axis=0), len(c))


class _Columns:
    """The columns of an N x m sample, centred once on their full-sample
    means, with what the moments of any leading or trailing slice are
    formed from: the column totals of the values and of their squares, and
    the lengths of the runs of equal values that start and end each
    column."""

    def __init__(self, v):
        self.c = c = v - v.mean(axis=0)
        self.total = c.sum(axis=0), (c * c).sum(axis=0)
        self.head, self.tail = _end_run(c[::-1]), _end_run(c)

    def moments(self, lo, hi):
        """Mean and population std of each column of ``c[lo:hi]``, a slice
        that starts or ends the sample, from the totals minus the rows it
        drops. A zero std counts as 1, and so does the std of a slice whose
        values are all equal, which the totals may leave at rounding size."""
        c, n = self.c, hi - lo
        out = np.concatenate([c[:lo], c[hi:]])
        mean = (self.total[0] - out.sum(axis=0)) / n
        var = (self.total[1] - (out * out).sum(axis=0)) / n - mean * mean
        std = np.sqrt(np.maximum(var, 0.0))
        std[(std == 0) | (n <= (self.tail if lo else self.head))] = 1.0
        return mean, std


def _lag_crosscorr(a, b, k):
    """Largest |Pearson correlation| between the columns of ``a.c[k:]`` and
    ``b.c[:N-k]`` (two :class:`_Columns`), with population stds."""
    n = len(a.c) - k
    if 2 * n <= len(a.c):
        # slices shorter than what they drop (N <= 40): the totals would
        # cancel, so each slice is centred on its own mean instead
        a, b, k = _Columns(a.c[k:]), _Columns(b.c[:n]), 0
    ma, sa = a.moments(k, k + n)
    mb, sb = b.moments(0, n)
    cross = a.c[k:].T @ b.c[:n] - n * np.outer(ma, mb)
    corr = cross / (n * np.outer(sa, sb))
    return float(np.max(np.abs(corr))) if corr.size else 0.0


def innovation_diagnostics(m: InnovationJointModel,
                           traj: Trajectory) -> DiagnosticsReport:
    """Empirical whiteness of the innovations and orthogonality to the state.

    Also reports the residual of the identity y - yhat = e1 - D0 e2, with
    yhat the joint one-step prediction of ``m`` as given (no projection),
    filtered from the true initial state; it holds for any joint model.
    """
    if traj.e is None or traj.x is None or not traj.N:
        raise ValidationError("diagnostics need samples with x and e")
    e, x = traj.e, traj.x
    N = traj.N
    band = 3.0 / np.sqrt(N)

    ec, xc = _Columns(e), _Columns(x)
    e_auto = np.zeros(_MAX_LAG)
    for k in range(1, _MAX_LAG + 1):
        e_auto[k - 1] = _lag_crosscorr(ec, ec, k) if k < N else 0.0
    ex = np.zeros(_STATE_MAX_LAG + 1)
    for k in range(_STATE_MAX_LAG + 1):
        ex[k] = _lag_crosscorr(ec, xc, k) if k < N else 0.0
    del ec, xc  # freed before the identity check's arrays exist

    es_resid = None
    notes = []
    try:
        D0 = compute_d0(m.Q[: m.p, m.p :], m.Q[m.p :, m.p :])
        yhat = joint_one_step_prediction(m, traj, x0=x[0])
        es_from_e = e[:, : m.p] - e[:, m.p :] @ D0.T
        skip = min(100, N // 2)  # < N, so the tail is never empty
        es_resid = float(np.max(np.abs((traj.y - yhat) - es_from_e)[skip:]))
    except (FfestError, ValueError, np.linalg.LinAlgError) as exc:
        # report-style: never raise from part (c)
        notes.append(f"es identity not evaluated: {exc}")

    low = N < LOW_SAMPLE_N
    if low:
        notes.append(
            f"low sample count N={N}: bands widen to +-{band:.3g}"
        )
    return DiagnosticsReport(
        band=band,
        e_autocorr=e_auto,
        e_state_corr=ex,
        whiteness_ok=bool(np.all(e_auto <= band)),
        state_orthogonality_ok=bool(np.all(ex <= band)),
        es_identity_residual=es_resid,
        low_sample_warning=low,
        notes=notes,
    )


# --- trajectory CSV -------------------------------------------------------

def _trajectory_columns(p, q, nx, ne):
    """The CSV header `t,y1..,w1..,x1..,e1..` for the given block widths."""
    cols = ["t"]
    for prefix, width in zip("ywxe", (p, q, nx, ne)):
        cols += [f"{prefix}{i+1}" for i in range(width)]
    return cols


def save_trajectory(traj: Trajectory, path):
    """Write `t,y1..,w1..[,x..,e..]` rows with 17 significant digits."""
    blocks = (traj.y, traj.w, traj.x, traj.e)
    cols = _trajectory_columns(*(0 if b is None else b.shape[1]
                                 for b in blocks))
    _write_csv(path, cols, np.arange(traj.N),
               *(b for b in blocks if b is not None))


# rows formatted per write: bounded, so the strings of one chunk stay small
# next to the arrays being written
_CSV_CHUNK_ROWS = 256


def _write_csv(path, columns, *blocks):
    """Write a header line of ``columns`` and one line per row of the
    ``blocks`` side by side (equal-length arrays of one or more columns),
    every value with ``%.17g`` (an integral value, such as t, prints as an
    integer): the bytes of ``np.savetxt(path, np.column_stack(blocks),
    fmt="%.17g", delimiter=",", header=",".join(columns), comments="")``.
    Rows are stacked and formatted from ``tolist()`` in chunks of
    ``_CSV_CHUNK_ROWS``, not as numpy scalars, so no copy of the whole
    table is made."""
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for i in range(0, len(blocks[0]), _CSV_CHUNK_ROWS):
            chunk = np.column_stack([b[i:i + _CSV_CHUNK_ROWS] for b in blocks])
            fh.write("".join(line % tuple(row) for row in chunk.tolist()))


def load_trajectory(path) -> Trajectory:
    """Read a trajectory written by :func:`save_trajectory`. The file is
    plain text whatever the suffix of ``path``; header and body are read
    through one handle, so no suffix selects a decompressor."""
    with open(path) as fh:
        try:
            header = fh.readline().strip().split(",")
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"{path}: not a text CSV ({exc})") from exc
        if not header or header[0] != "t":
            raise ModelFormatError(f"{path}: first column must be 't'")

        def count(prefix):
            return sum(1 for c in header
                       if c.startswith(prefix) and c[1:].isdigit())

        p, q = count("y"), count("w")
        nx, ne = count("x"), count("e")
        expected = _trajectory_columns(p, q, nx, ne)
        if header != expected:
            raise ModelFormatError(f"{path}: unexpected header {header}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)  # empty body
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except (ValueError, UserWarning) as exc:  # incl. UnicodeDecodeError
            raise ModelFormatError(f"{path}: non-numeric value, ragged rows "
                                   f"or no rows ({exc})") from exc
    if data.shape[1] != len(expected):
        raise ModelFormatError(f"{path}: ragged rows")
    y, w, x, e = np.split(data[:, 1:], np.cumsum([p, q, nx]), axis=1)
    return Trajectory(y=y, w=w, x=x if nx else None, e=e if ne else None)

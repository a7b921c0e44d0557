"""Model types for every system form in the pipeline, plus validation and
the JSON model-document format.

Each model type declares its matrices once, as its ``np.ndarray`` fields
with their exact shapes in ``_shapes()``; the shared constructor and the
JSON documents both read that declaration. Constructors check structure
only: every matrix must have exactly its declared shape (an empty array
takes its declared empty shape) and finite entries. The deeper invariants
(stability, positive definiteness, triangularity) are checked by
:func:`validate`, which returns a report instead of raising so that invalid
models can be inspected. A JSON document lists the dims ``n``, ``p``, ``q``
(plus ``p1``, ``p2`` for triangular models), which must match the
matrices, and each matrix as row arrays, with ``[]`` for an empty matrix.
"""

import json
from dataclasses import dataclass, field, fields
from functools import cache

import numpy as np

from .errors import ModelFormatError, ValidationError
from .matkernel import _check_finite, spectral_radius

__all__ = [
    "StateSpaceModel",
    "InnovationJointModel",
    "TriangularJointModel",
    "EstimatorModel",
    "Trajectory",
    "ValidationReport",
    "validate",
    "assemble",
    "flip_state_signs",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
]


def _arr(x):
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        a = np.atleast_2d(a) if a.size else a.reshape(0, 0)
    return a


@cache
def _matrix_names(cls):
    """The matrices a model type declares: its ndarray fields, in order."""
    return tuple(f.name for f in fields(cls) if f.type is np.ndarray)


class _Matrices:
    """Shared constructor of the model types.

    Every matrix field becomes a 2-D float array, checked against the exact
    shape ``_shapes()`` declares for it; only an empty array is reshaped,
    to its declared empty shape.
    """

    def __post_init__(self):
        for name in _matrix_names(type(self)):
            setattr(self, name, _arr(getattr(self, name)))
        for name, shape in self._shapes().items():
            a = getattr(self, name)
            if a.shape != shape:
                if a.size or 0 not in shape:
                    raise ValidationError(
                        f"{name} shape {a.shape}, expected {shape}")
                setattr(self, name, a.reshape(shape))
            _check_finite(name, a)


def _upper(X11, X12, X22):
    """[[X11, X12], [0, X22]], with an exact zero lower-left block; leading
    axes of the blocks stack."""
    r1, c1 = X11.shape[-2:]
    X = np.zeros(X11.shape[:-2] + (r1 + X22.shape[-2], c1 + X22.shape[-1]))
    X[..., :r1, :c1] = X11
    X[..., :r1, c1:] = X12
    X[..., r1:, c1:] = X22
    return X


@dataclass
class StateSpaceModel(_Matrices):
    """Driven model x+ = Ax + Bv, [y; w] = Cx + Dv with v ~ N(0, I)."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    p: int
    q: int

    def _shapes(self):
        n, m, r = self.A.shape[0], self.D.shape[1], self.p + self.q
        return {"A": (n, n), "B": (n, m), "C": (r, n), "D": (r, m)}

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]


@dataclass
class InnovationJointModel(_Matrices):
    """Joint forward innovation form x+ = Ax + Ke, [y; w] = Cx + e."""

    A: np.ndarray
    K: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    p: int
    q: int

    def _shapes(self):
        n, r = self.A.shape[0], self.p + self.q
        return {"A": (n, n), "K": (n, r), "C": (r, n), "Q": (r, r)}

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def C_w(self):
        return self.C[self.p :, :]


@dataclass
class TriangularJointModel(_Matrices):
    """Block upper-triangular joint innovation form with partition (p1, p2).

    The assembled matrices are

        A = [[A11, A12], [0, A22]],   K = [[K11, K12], [0, K22]],
        C = [[C11, C12], [0, C22]],   Q = [[Q11, Q12], [Q12^T, Q22]]

    with the zero blocks placed exactly, and ``T`` the similarity that maps
    the originating joint model into these coordinates.
    """

    A11: np.ndarray
    A12: np.ndarray
    A22: np.ndarray
    K11: np.ndarray
    K12: np.ndarray
    K22: np.ndarray
    C11: np.ndarray
    C12: np.ndarray
    C22: np.ndarray
    Q11: np.ndarray
    Q12: np.ndarray
    Q22: np.ndarray
    T: np.ndarray
    p1: int
    p2: int
    p: int
    q: int

    def _shapes(self):
        p1, p2, p, q = self.p1, self.p2, self.p, self.q
        return {
            "A11": (p1, p1), "A12": (p1, p2), "A22": (p2, p2),
            "K11": (p1, p), "K12": (p1, q), "K22": (p2, q),
            "C11": (p, p1), "C12": (p, p2), "C22": (q, p2),
            "Q11": (p, p), "Q12": (p, q), "Q22": (q, q),
            "T": (p1 + p2, p1 + p2),
        }

    @property
    def n(self):
        return self.p1 + self.p2

    @property
    def A(self):
        return _upper(self.A11, self.A12, self.A22)

    @property
    def K(self):
        return _upper(self.K11, self.K12, self.K22)

    @property
    def C(self):
        return _upper(self.C11, self.C12, self.C22)

    @property
    def Q(self):
        return np.block([[self.Q11, self.Q12], [self.Q12.T, self.Q22]])


@dataclass
class EstimatorModel(_Matrices):
    """Causal predictor x+ = Atil x + Ktil w, yhat = Ctil x + D0 w."""

    Atil: np.ndarray
    Ktil: np.ndarray
    Ctil: np.ndarray
    D0: np.ndarray

    def _shapes(self):
        n = self.Atil.shape[0]
        # read p, q off blocks that are not empty when n > 0 (a JSON "[]"
        # keeps no shape)
        p, q = (self.Ctil.shape[0], self.Ktil.shape[1]) if n else self.D0.shape
        return {"Atil": (n, n), "Ktil": (n, q), "Ctil": (p, n), "D0": (p, q)}

    @property
    def n(self):
        return self.Atil.shape[0]

    @property
    def p(self):
        return self.D0.shape[0]

    @property
    def q(self):
        return self.D0.shape[1]


@dataclass
class Trajectory:
    """Time-indexed samples of y and w, optionally with state and noise."""

    y: np.ndarray
    w: np.ndarray
    x: np.ndarray | None = None
    e: np.ndarray | None = None

    def __post_init__(self):
        self.y = np.atleast_2d(np.asarray(self.y, dtype=float))
        self.w = np.atleast_2d(np.asarray(self.w, dtype=float))
        if self.y.shape[0] != self.w.shape[0]:
            raise ValidationError(
                f"y has {self.y.shape[0]} samples but w has {self.w.shape[0]}"
            )
        for name in ("x", "e"):
            v = getattr(self, name)
            if v is not None:
                v = np.atleast_2d(np.asarray(v, dtype=float))
                if v.shape[0] != self.y.shape[0]:
                    raise ValidationError(f"{name} sample count mismatch")
                _check_finite(name, v)
                setattr(self, name, v)
        _check_finite("y", self.y)
        _check_finite("w", self.w)

    @property
    def N(self):
        return self.y.shape[0]


@dataclass
class ValidationReport:
    ok: bool
    violations: list = field(default_factory=list)

    def __bool__(self):
        return self.ok


def _pd_defect(Q, tol):
    """Most negative eigenvalue if Q is not PD within tol, else None."""
    Qs = 0.5 * (Q + Q.T)
    if np.linalg.norm(Q - Q.T) > tol * (1 + np.linalg.norm(Q)):
        return ("asymmetric", float(np.linalg.norm(Q - Q.T)))
    lam = float(np.min(np.linalg.eigvalsh(Qs))) if Q.size else 1.0
    if lam <= tol:
        return ("eigenvalue", lam)
    return None


# per model type: the matrices whose spectral radius must lie below a limit,
# as (field, label, limit), and those that must be positive definite
_RULES = {
    StateSpaceModel: ([("A", "A", 1.0)], []),
    InnovationJointModel: ([("A", "A", 1.0)], ["Q"]),
    TriangularJointModel: ([("A", "assembled A", 1.0)], ["Q22"]),
    EstimatorModel: ([("Atil", "Atil", 1.0 + 1e-8)], []),
    Trajectory: ([], []),  # structural checks already ran in the constructor
}


def validate(model):
    """Check the deep invariants of any model type; returns a report."""
    rules = next((r for cls, r in _RULES.items() if isinstance(model, cls)),
                 None)
    if rules is None:
        raise TypeError(f"cannot validate object of type {type(model).__name__}")
    stable, definite = rules
    v = []
    for name, label, limit in stable:
        rho = spectral_radius(getattr(model, name))
        if rho >= limit:
            v.append(f"spectral radius of {label} is {rho:.6g} >= 1")
    for name in definite:
        defect = _pd_defect(getattr(model, name), 1e-9)
        if defect is not None:
            kind, val = defect
            v.append(f"{name} not positive definite ({kind}: {val:.6g})")
    return ValidationReport(ok=not v, violations=v)


def assemble(t):
    """Full joint innovation model from triangular blocks (zeros placed)."""
    return InnovationJointModel(A=t.A, K=t.K, C=t.C, Q=t.Q, p=t.p, q=t.q)


def _split(A, K, C, Q, p1, p, T):
    """Triangular blocks of assembled (A, K, C, Q) at state partition p1
    and output dimension p; the lower-left blocks are dropped."""
    return TriangularJointModel(
        A11=A[:p1, :p1], A12=A[:p1, p1:], A22=A[p1:, p1:],
        K11=K[:p1, :p], K12=K[:p1, p:], K22=K[p1:, p:],
        C11=C[:p, :p1], C12=C[:p, p1:], C22=C[p:, p1:],
        Q11=Q[:p, :p], Q12=Q[:p, p:], Q22=Q[p:, p:],
        T=T, p1=p1, p2=A.shape[0] - p1, p=p, q=C.shape[0] - p,
    )


def flip_state_signs(t: TriangularJointModel, signs) -> TriangularJointModel:
    """Similarity x -> S x with S = diag(signs in {-1, +1}).

    The triangular structure is preserved; useful for matching an external
    sign convention (each state of a balanced form is determined up to
    sign).
    """
    s = np.asarray(signs, dtype=float).reshape(t.n)
    if not np.all(np.abs(s) == 1.0):
        raise ValidationError("signs must be +-1")
    return _split(s[:, None] * t.A * s, s[:, None] * t.K, t.C * s, t.Q,
                  t.p1, t.p, s[:, None] * t.T)


# --- JSON model documents -------------------------------------------------

_KINDS = {
    "state_space": StateSpaceModel,
    "innovation_joint": InnovationJointModel,
    "triangular_joint": TriangularJointModel,
    "estimator": EstimatorModel,
}


def _dims(cls):
    """Declared dims of a document: n, p, q plus the integer fields."""
    return {"n", "p", "q"} | {f.name for f in fields(cls) if f.type is int}


def model_to_dict(model):
    kind = next((k for k, cls in _KINDS.items() if type(model) is cls), None)
    if kind is None:
        raise TypeError(f"no JSON kind for {type(model).__name__}")
    doc = {"kind": kind}
    for d in sorted(_dims(type(model))):
        doc[d] = int(getattr(model, d))
    for name in _matrix_names(type(model)):
        doc[name] = np.asarray(getattr(model, name)).tolist()
    return doc


def model_from_dict(doc):
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    kind = doc.get("kind")
    if kind not in _KINDS:
        raise ModelFormatError(f"unknown model kind {kind!r}")
    cls = _KINDS[kind]
    dims, mats = _dims(cls), _matrix_names(cls)
    unknown = set(doc) - dims - set(mats) - {"kind"}
    if unknown:
        raise ModelFormatError(f"unknown fields in model document: {sorted(unknown)}")
    missing = (dims | set(mats)) - set(doc)
    if missing:
        raise ModelFormatError(f"missing fields in model document: {sorted(missing)}")
    try:
        declared = {d: int(doc[d]) for d in dims}
        kwargs = {name: np.asarray(doc[name], dtype=float) for name in mats}
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model document: {exc}") from exc
    for name, a in kwargs.items():
        if a.ndim != 2 and a.shape != (0,):
            raise ModelFormatError(
                f"matrix {name!r} must be an array of row arrays"
            )
    # dims that are constructor fields are passed on, the rest are checked
    kwargs.update({d: v for d, v in declared.items()
                   if d in cls.__dataclass_fields__})
    try:
        model = cls(**kwargs)
    except ValidationError as exc:
        raise ModelFormatError(str(exc)) from exc
    for d in sorted(dims):
        if getattr(model, d) != declared[d]:
            raise ModelFormatError(
                f"declared {d} = {declared[d]} inconsistent with matrices "
                f"({getattr(model, d)})"
            )
    return model


def save_model(model, path):
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")


def load_model(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"invalid JSON in {path}: {exc}") from exc
    return model_from_dict(doc)

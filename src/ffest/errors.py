"""Exception hierarchy shared by all ffest modules.

The CLI maps these onto its exit-code taxonomy:
validation/format errors -> 2, solver errors -> 3,
feedback violations -> 4, identification failures -> 5.
"""

__all__ = [
    "FfestError",
    "ValidationError",
    "ModelFormatError",
    "SolverError",
    "StabilityError",
    "IndefiniteCovarianceError",
    "ConvergenceError",
    "FeedbackViolationError",
    "IdentificationError",
    "UndefinedVafError",
    "SamplingError",
]


class FfestError(Exception):
    """Base class for all ffest errors."""


class ValidationError(FfestError):
    """A model or argument violates a structural invariant."""


class ModelFormatError(ValidationError):
    """A model document (JSON) or trajectory file could not be parsed."""


class SolverError(FfestError):
    """A numerical solver failed."""


class StabilityError(SolverError):
    """A matrix required to be stable has spectral radius >= 1."""

    def __init__(self, message, spectral_radius):
        super().__init__(message)
        self.spectral_radius = spectral_radius


class IndefiniteCovarianceError(SolverError):
    """A covariance that must be positive (semi)definite is not."""


class ConvergenceError(SolverError):
    """A solver did not converge or found no stabilizing solution."""


class FeedbackViolationError(FfestError):
    """The no-feedback condition does not hold at the requested tolerance."""

    def __init__(self, message, residual, p1, p2):
        super().__init__(message)
        self.residual = residual
        self.p1 = p1
        self.p2 = p2


class IdentificationError(FfestError):
    """All optimizer starts failed to produce a usable fit."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


class UndefinedVafError(FfestError):
    """VAF is undefined because a signal component has zero variance."""


class SamplingError(FfestError, RuntimeError):
    """Rejection sampling of a random system found no admissible draw."""

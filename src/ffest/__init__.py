"""Feedback-free estimator synthesis for joint stochastic LTI models.

Pipeline: a driven state-space realization of the stacked process (y, w)
is converted to forward innovation form, tested for absence of feedback
from y to w, block-triangularized, and turned into the minimum-error-
variance causal estimator of y from w. A prediction-error identification
harness compares estimating the predictor directly against estimating the
joint generator first.
"""

from . import (errors, estimator, matkernel, metrics, models, realization,
               simulation, sysid)
from .errors import *
from .estimator import *
from .matkernel import *
from .metrics import *
from .models import *
from .realization import *
from .simulation import *
from .sysid import *

__version__ = "0.1.0"

__all__ = (errors.__all__ + estimator.__all__ + matkernel.__all__
           + metrics.__all__ + models.__all__ + realization.__all__
           + simulation.__all__ + sysid.__all__ + ["__version__"])

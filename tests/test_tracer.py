"""The traced benchmark's wiring: every function ``perfbench/tracer.py``
wraps still exists under the module and name it lists."""

import importlib.util
from pathlib import Path

import numpy as np

from ffest import sysid

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_traced_layers_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for name, module, attr in tracer.LAYERS:
        assert callable(getattr(importlib.import_module(module), attr)), name
    # the tracer wraps estimator_for on the classes that define it, and its
    # SPLITS key an objective call by the parameterization's case
    assert "estimator_for" in vars(sysid.Parameterization)
    assert sysid.Parameterization in tracer._estimator_for_classes()
    par = sysid.build_parameterization("pred_full", (2, 1, 1, 1, 1))
    assert par.case == "pred_full"
    key = tracer.SPLITS["sysid.objective"][1]
    assert key((par, np.zeros(par.theta_dim), None)) == "pred_full"

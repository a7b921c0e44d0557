"""What importing ffest loads: scipy.signal and scipy.optimize wait for the
first filter run and the first fit."""

import os
import subprocess
import sys
from pathlib import Path

_SCRIPT = r"""
import contextlib, io, sys

def loaded():
    return sorted(m for m in ("scipy.signal", "scipy.optimize")
                  if m in sys.modules)

import ffest
print("import", loaded())
import ffest.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = ffest.cli.main(["reproduce", "sec5"])
print("sec5", code, loaded())
from ffest.estimator import _linear_filter
import numpy as np
print("cached", _linear_filter.cache_info().currsize)
e = ffest.synthesize(ffest.cli.example_triangular_model())
ffest.filter_signal(e, np.ones((20, e.q)))
from scipy.signal._sigtools import _linear_filter as c_filter
print("filter", _linear_filter.cache_info().currsize,
      _linear_filter() is c_filter)
"""


def test_scipy_signal_and_optimize_load_on_first_use():
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    assert out.stdout.splitlines() == [
        "import []",
        "sec5 0 []",
        "cached 0",
        "filter 1 True",
    ]

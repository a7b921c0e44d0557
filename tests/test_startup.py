"""What importing ffest loads: scipy.signal and scipy.optimize wait for the
first filter run and the first fit, and a benchmark over worker processes
loads both before it starts them."""

import os
import subprocess
import sys
from pathlib import Path

_LOADED = r"""
import sys

def loaded():
    return sorted(m for m in ("scipy.signal", "scipy.optimize")
                  if m in sys.modules)
"""

_SCRIPT = _LOADED + r"""
import contextlib, io

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


# the pool records what the parent has loaded when the benchmark starts it,
# and stops the benchmark there
_POOL_SCRIPT = _LOADED + r"""
import concurrent.futures

import ffest.sysid
from ffest.estimator import _linear_filter

class Started(Exception):
    pass

class Pool:
    def __init__(self, max_workers):
        print("pool", max_workers, loaded(),
              _linear_filter.cache_info().currsize)
        raise Started

concurrent.futures.ProcessPoolExecutor = Pool
try:
    ffest.sysid.benchmark(ffest.sysid.random_benchmark_system(), M=1,
                          workers=2)
except Started:
    pass
"""


def run_script(script):
    """The stdout lines of ``script`` run in a fresh interpreter."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return out.stdout.splitlines()


def test_scipy_signal_and_optimize_load_on_first_use():
    assert run_script(_SCRIPT) == [
        "import []",
        "sec5 0 []",
        "cached 0",
        "filter 1 True",
    ]


def test_benchmark_pool_inherits_scipy_signal_and_optimize():
    assert run_script(_POOL_SCRIPT) == [
        "pool 2 ['scipy.optimize', 'scipy.signal'] 1",
    ]

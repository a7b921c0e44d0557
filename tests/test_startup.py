"""What importing ffest loads: no scipy at all. scipy.linalg waits for the
first Lyapunov or Riccati solve, scipy.optimize for the first fit, and the
extension module of scipy's C filter for the first filter run, which loads
no scipy.signal; a later import of scipy.signal reuses that module. A
benchmark over worker processes loads all three before it starts them."""

import os
import subprocess
import sys
from pathlib import Path

_LOADED = r"""
import sys

def loaded():
    return sorted(m for m in ("scipy.linalg", "scipy.signal", "scipy.optimize",
                              "scipy.signal._sigtools")
                  if m in sys.modules)

def any_scipy():
    return sorted(m for m in sys.modules if m.startswith("scipy"))
"""

_SCRIPT = _LOADED + r"""
import contextlib, io, os, tempfile

import ffest
print("import", any_scipy())
import ffest.cli
print("cli", any_scipy())
with tempfile.TemporaryDirectory() as tmp, \
        contextlib.redirect_stdout(io.StringIO()):
    joint = os.path.join(tmp, "joint.json")
    ffest.save_model(ffest.assemble(ffest.random_benchmark_system()), joint)
    codes = [ffest.cli.main(["synthesize", joint,
                             os.path.join(tmp, "est.json")]),
             ffest.cli.main(["simulate", joint, os.path.join(tmp, "traj.csv"),
                             "--n", "50", "--init", "zero"])]
print("synthesize simulate", codes, any_scipy())
with contextlib.redirect_stdout(io.StringIO()):
    code = ffest.cli.main(["reproduce", "sec5"])
print("sec5", code, loaded())
from ffest.estimator import _linear_filter
import numpy as np
print("cached", _linear_filter.cache_info().currsize)
e = ffest.synthesize(ffest.cli.example_triangular_model())
ffest.filter_signal(e, np.ones((20, e.q)))
print("filter", _linear_filter.cache_info().currsize, loaded())
from scipy.signal import lfilter
from scipy.signal._sigtools import _linear_filter as c_filter
b, a = np.ones(1, dtype=complex), np.array([1.0, -0.5], dtype=complex)
x = np.random.default_rng(0).standard_normal(100).astype(complex)
print("scipy.signal", _linear_filter() is c_filter,
      np.array_equal(lfilter(b, a, x), c_filter(b, a, x, -1)))
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
    def __init__(self, max_workers, initializer):
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
        "cli []",
        "synthesize simulate [0, 0] []",
        "sec5 0 ['scipy.linalg']",
        "cached 0",
        "filter 1 ['scipy.linalg', 'scipy.signal._sigtools']",
        "scipy.signal True True",
    ]


def test_benchmark_pool_inherits_scipy_signal_and_optimize():
    assert run_script(_POOL_SCRIPT) == [
        "pool 2 ['scipy.linalg', 'scipy.optimize', 'scipy.signal._sigtools'] 1",
    ]

"""Speed of the CPU while a run lasts, from a fixed reference kernel.

The machine this benchmark was written on is a virtual machine whose CPU
speed drifts by up to 1.6x over minutes, from load outside it that no
process inside can see: CPU time grows with the drift as much as wall time
does. A run therefore times a fixed kernel of its own, every
``INTERVAL_S`` of CPU time between the operations of its passes, and
scales its CPU times by ``REFERENCE_S`` / (median kernel time of the run).
The kernel is timed only while the run is busy: right after the process
waited (for a child process, say) it ran up to 1.6x slower, while the work
around it did not. The kernel mixes what ffest spends its time on: small
matrix-vector products in a Python loop and number formatting. It is
benchmark code, so a change to ffest does not change it.
"""

from statistics import median
from time import perf_counter, process_time

import numpy as np

# median kernel timing during the passes on the reference machine (2-CPU
# Intel Xeon VM at 2.0 GHz, Python 3.11.7, numpy 2.4.6), idle
REFERENCE_S = 4.25e-3
INTERVAL_S = 0.5
STEPS = 2000
# kernel calls per timing, of which the fastest counts: the first call
# after a step that filled the caches with other data runs up to 2x slower
REPEATS = 3

_A = np.random.default_rng(12345).standard_normal((8, 8)) / 4.0


def kernel():
    x = np.ones(8)
    acc = 0.0
    cells = []
    for i in range(STEPS):
        x = _A @ x + 0.1
        acc += float(x[i % 8])
        cells.append(f"{acc:.9e}")
    return len(",".join(cells))


class Calibration:
    """Kernel timings of one run, and a clock that leaves them out."""

    def __init__(self):
        self.samples = []           # CPU time of each kernel timing
        self._spent_wall = 0.0
        self._spent_cpu = 0.0
        self._last = process_time()

    def sample(self):
        w0 = perf_counter()
        times = []
        for _ in range(REPEATS):
            c = process_time()
            kernel()
            times.append(process_time() - c)
        self._spent_wall += perf_counter() - w0
        self._spent_cpu += sum(times)
        self.samples.append(min(times))
        self._last = process_time()

    def clock(self):
        """Wall and CPU time now, less the time spent in the kernel so far:
        the difference of two readings times the work between them."""
        return (perf_counter() - self._spent_wall,
                process_time() - self._spent_cpu)

    def maybe_sample(self):
        """Time the kernel if ``INTERVAL_S`` of CPU time passed since the
        last timing; call between operations."""
        if process_time() - self._last >= INTERVAL_S:
            self.sample()

    def scale(self):
        """Factor that turns this run's CPU seconds into reference seconds."""
        return REFERENCE_S / median(self.samples)

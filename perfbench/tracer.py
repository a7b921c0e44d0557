"""In-memory span recorder that wraps ffest's public functions from outside.

A wrapped function is replaced at every module binding that holds it
(``ffest.sysid.filter_signal``, ``ffest.cli.filter_signal``, ...), so calls
made inside the library are seen too. Each call records one span
``(name, start, end, parent, op)``; self time is a span's duration minus
the durations of its direct children. Nothing is written until the run
ends, and :meth:`Tracer.uninstall` puts every original binding back.
"""

import sys
from collections import defaultdict
from time import perf_counter

import ffest.sysid

# (layer metric prefix, module that defines the function, function name)
LAYERS = [
    ("sysid.identify", "ffest.sysid", "identify"),
    ("sysid.objective", "ffest.sysid", "objective"),
    ("estimator.filter_signal", "ffest.estimator", "filter_signal"),
    ("estimator.synthesize", "ffest.estimator", "synthesize"),
    ("estimator.joint_one_step_prediction", "ffest.estimator",
     "joint_one_step_prediction"),
    ("realization.innovation_form_details", "ffest.realization",
     "innovation_form_details"),
    ("realization.check_feedback_free", "ffest.realization",
     "check_feedback_free"),
    ("realization.triangularize", "ffest.realization", "triangularize"),
    ("matkernel.solve_discrete_lyapunov", "ffest.matkernel",
     "solve_discrete_lyapunov"),
    ("matkernel.solve_innovation_riccati", "ffest.matkernel",
     "solve_innovation_riccati"),
    ("matkernel.spectral_radius", "ffest.matkernel", "spectral_radius"),
    ("matkernel.svd", "ffest.matkernel", "svd"),
    ("simulation.simulate", "ffest.simulation", "simulate"),
    ("simulation.save_trajectory", "ffest.simulation", "save_trajectory"),
    ("simulation.load_trajectory", "ffest.simulation", "load_trajectory"),
    ("simulation.innovation_diagnostics", "ffest.simulation",
     "innovation_diagnostics"),
    ("cli.main", "ffest.cli", "main"),
]

# spans also totalled per call argument: (metric, key of the call)
SPLITS = {
    "sysid.objective": ("calls", lambda args: args[0].case),
    "cli.main": ("self_s", lambda args: args[0][0]),
}


def _ffest_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ffest" or name.startswith("ffest."))]


def _rebind(old, new):
    """Replace ``old`` by ``new`` at every ffest module binding."""
    for module in _ffest_modules():
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def _estimator_for_classes():
    base = ffest.sysid.Parameterization
    return [c for c in vars(ffest.sysid).values()
            if isinstance(c, type) and issubclass(c, base)
            and "estimator_for" in vars(c)]


class Tracer:
    """Records spans around the calls listed in :data:`LAYERS` while
    installed; spans accumulate until the tracer is dropped."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index, op id, key]
        self._stack = []
        self.op = 0
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        split = SPLITS.get(name, (None, None))[1]

        def traced(*args, **kwargs):
            key = split(args) if split else None
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [name, perf_counter(), 0.0, parent, self.op, key]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for name, module, attr in LAYERS:
            fn = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, fn)
            _rebind(fn, wrapper)
            self._undo.append((wrapper, fn))
        for cls in _estimator_for_classes():
            fn = vars(cls)["estimator_for"]
            wrapper = self._wrap("sysid.estimator_for", fn)
            setattr(cls, "estimator_for", wrapper)
            self._undo.append((cls, fn))

    def uninstall(self):
        for holder, fn in reversed(self._undo):
            if isinstance(holder, type):
                setattr(holder, "estimator_for", fn)
            else:
                _rebind(holder, fn)
        self._undo.clear()

    def next_op(self):
        """Start a new operation; later spans carry its id."""
        self.op += 1

    def totals(self, first=0):
        """Layer metrics over the spans from index ``first`` on:
        ``<name>.calls``, ``<name>.self_s`` and the :data:`SPLITS`."""
        out = defaultdict(int)
        child = defaultdict(float)
        spans = self.spans[first:]
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, _, key) in enumerate(spans, first):
            own = (end - start) - child[i]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
            if key is not None:
                metric = SPLITS[name][0]
                out[f"{name}.{metric}.{key}"] += 1 if metric == "calls" else own
        return out

    def write(self, path):
        """Write the spans as CSV: id,parent,op,name,key,start,end."""
        with open(path, "w") as fh:
            fh.write("id,parent,op,name,key,start,end\n")
            for i, (name, start, end, parent, op, key) in enumerate(self.spans):
                fh.write(f"{i},{parent},{op},{name},{key or ''},"
                         f"{start:.9f},{end:.9f}\n")

"""Span tracing and call counting for archemo, installed from outside the package.

The program carries no tracing of its own.  A :class:`Rebinder` replaces a
package function by a wrapper in *every* archemo module that binds it, and
puts the originals back on exit.  That matters because ``recover``,
``variation`` and ``harness`` import ``solve_forward`` by name, and
``recover`` does the same with ``extract_variation_fd``: a wrapper set only
on the defining module would miss every oracle solve.

:class:`Tracer` keeps its spans in flat arrays in memory (name, start, end,
parent) and derives calls, inclusive time and self time per span name after
the run.  Self time is a span's duration minus the time covered by its
direct child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, function, span name) for every layer boundary the traced run records
TRACED = (
    ("grid", "helmholtz_solve", "grid.helmholtz_solve"),
    ("grid", "spectral_helmholtz", "grid.spectral_helmholtz"),
    ("grid", "laplacian_neumann", "grid.laplacian_neumann"),
    ("grid", "advective_flux_div", "grid.advective_flux_div"),
    ("grid", "advective_flux_div_patterned", "grid.advective_flux_div_patterned"),
    ("grid", "max_face_speed", "grid.max_face_speed"),
    ("forward", "solve_forward", "forward.solve_forward"),
    ("forward", "step", "forward.step"),
    ("variation", "extract_variation_fd", "variation.extract_variation_fd"),
    ("recover", "recover_r", "recover.stage.r"),
    ("recover", "recover_linear_kinetics", "recover.stage.linear_kinetics"),
    ("recover", "recover_chi_xi_mu", "recover.stage.chi_xi_mu"),
    ("recover", "recover_second_kinetics", "recover.stage.second_kinetics"),
    ("probes", "modal_amplitude", "probes.modal_amplitude"),
    ("probes", "transform_samples", "probes.transform_samples"),
    ("probes", "moment_recover", "probes.moment_recover"),
    ("harness", "measure_match_tol", "harness.measure_match_tol"),
    ("harness", "identifiability_sweep", "harness.identifiability_sweep"),
    ("harness", "identifiability_experiment", "harness.identifiability_experiment"),
    ("harness", "measurement_distance", "harness.measurement_distance"),
)


PACKAGE = "archemo"


def package_modules():
    """Every loaded module of the package, the package itself included."""
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Rebinder:
    """Context manager that swaps package functions for wrappers everywhere they are bound."""

    def __init__(self):
        self._log = []

    def wrap(self, module, func, make_wrapper):
        """Bind ``make_wrapper(current)`` wherever ``archemo.<module>.<func>`` is bound."""
        target = getattr(sys.modules[f"{PACKAGE}.{module}"], func)
        wrapper = make_wrapper(target)
        for mod in package_modules():
            for key, val in list(vars(mod).items()):
                if val is target:
                    setattr(mod, key, wrapper)
                    self._log.append((mod, key, val))
        return wrapper

    def restore(self):
        while self._log:
            mod, key, val = self._log.pop()
            setattr(mod, key, val)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


class ForwardCounter:
    """Counts trajectories integrated by ``solve_forward`` and the bytes they store.

    Installed in timed and traced runs alike; it adds two attribute updates per
    forward solve, which is noise against a solve of hundreds of steps.
    """

    def __init__(self):
        self.runs = 0
        self.stored_bytes = 0

    def install(self, rebinder: Rebinder):
        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                traj = fn(*args, **kwargs)
                # solve_forward integrates one initial datum per call
                self.runs += 1
                self.stored_bytes += traj.u.nbytes + traj.v.nbytes + traj.w.nbytes
                return traj
            return counted
        rebinder.wrap("forward", "solve_forward", make)


class Tracer:
    """In-memory span recorder; spans nest by call order in one thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.name_ix = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name):
        i = len(self.start)
        self.name_ix.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(self.clock())
        self.end.append(float("nan"))
        self._stack.append(i)
        return i

    def close(self, i):
        self.end[i] = self.clock()
        top = self._stack.pop()
        if top != i:
            raise RuntimeError(f"span {i} closed while span {top} was innermost")

    def record(self, name, start, end):
        """Add an already-timed span under the innermost open span."""
        self.name_ix.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(start)
        self.end.append(end)

    def wrapper(self, name):
        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                i = self.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(i)
            return traced
        return make

    def install(self, rebinder: Rebinder, traced=TRACED):
        for module, func, name in traced:
            rebinder.wrap(module, func, self.wrapper(name))

    def arrays(self):
        ix = np.asarray(self.name_ix, dtype=np.int64)
        start = np.asarray(self.start)
        end = np.asarray(self.end)
        parent = np.asarray(self.parent, dtype=np.int64)
        return ix, start, end, parent

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        _, start, end, parent = self.arrays()
        dur = end - start
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return dur - child

    def summary(self):
        """{name: {"calls", "s", "self_s"}} plus {(parent name, child name): calls}."""
        ix, start, end, parent = self.arrays()
        k = len(self.names)
        dur = end - start
        self_t = self.self_times()
        calls = np.bincount(ix, minlength=k)
        incl = np.bincount(ix, weights=dur, minlength=k)
        excl = np.bincount(ix, weights=self_t, minlength=k)
        per_name = {n: {"calls": int(calls[j]), "s": float(incl[j]), "self_s": float(excl[j])}
                    for j, n in enumerate(self.names)}
        has = parent >= 0
        pair = np.bincount(ix[parent[has]] * k + ix[has], minlength=k * k)
        nested = {(self.names[p // k], self.names[p % k]): int(pair[p])
                  for p in np.flatnonzero(pair)}
        return per_name, nested

    def to_json(self):
        ix, start, end, parent = self.arrays()
        return {"names": list(self.names), "name": ix.tolist(), "start": start.tolist(),
                "end": end.tolist(), "parent": parent.tolist()}

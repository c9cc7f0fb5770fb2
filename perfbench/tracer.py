"""Span tracing of the semiphoton package, installed from outside it.

Every function defined in the package is replaced, under every module
attribute that binds it and in ``suites.SUITE_FUNCS``, by one wrapper that
records a span: name, start, end, parent span and request id.  Modules
import each other's functions by name (``from .linalg import as_bispinor``),
so patching only the defining module would miss those calls.  Spans stay in
memory until :meth:`Tracer.save`.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from array import array

import numpy as np

PACKAGE = "semiphoton"


class Tracer:
    def __init__(self):
        self.names = []          # span name per name id
        self.name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.request = -1
        self._stack = [-1]
        self._wrappers = {}
        self._originals = []

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, fn):
        """One wrapper per function object, shared by all its bindings."""
        if fn in self._wrappers:
            return self._wrappers[fn]
        name_id = self._name_id(
            f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}")
        names, parents, requests = (self.span_name, self.span_parent,
                                    self.span_request)
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            requests.append(tracer.request)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        self._wrappers[fn] = traced
        return traced

    def install(self):
        """Patch every binding of every package-defined function."""
        package = importlib.import_module(PACKAGE)
        modules = [package] + [
            importlib.import_module(f"{PACKAGE}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
            if info.name != "__main__"]
        bindings = [(vars(module), attr, value) for module in modules
                    for attr, value in vars(module).items()
                    if inspect.isfunction(value)
                    and value.__module__.startswith(PACKAGE + ".")]
        suite_funcs = importlib.import_module(f"{PACKAGE}.suites").SUITE_FUNCS
        bindings += [(suite_funcs, key, fn) for key, fn in suite_funcs.items()]
        for namespace, key, fn in bindings:
            namespace[key] = self.wrap(fn)
        self._originals = bindings
        return len(self._wrappers)

    def uninstall(self):
        """Put every original function back."""
        for namespace, key, fn in self._originals:
            namespace[key] = fn
        self._originals = []

    def arrays(self):
        return {
            "name": np.array(self.span_name, dtype=np.int32),
            "parent": np.array(self.span_parent, dtype=np.int32),
            "request": np.array(self.span_request, dtype=np.int32),
            "start": np.array(self.span_start, dtype=np.float64),
            "end": np.array(self.span_end, dtype=np.float64),
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self):
        """Per-name call counts, inclusive and self seconds, and the
        number of ``torus.integrate_mass`` spans inside a calibration."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child_time = np.bincount(a["parent"][has_parent],
                                 weights=dur[has_parent], minlength=len(dur))
        calls = np.bincount(a["name"], minlength=n_names)
        total = np.bincount(a["name"], weights=dur, minlength=n_names)
        self_s = np.bincount(a["name"], weights=dur - child_time,
                             minlength=n_names)

        calibrate = self.name_ids.get("torus.calibrate_e0")
        in_calibration = 0
        for i in np.flatnonzero(a["name"] == self.name_ids.get(
                "torus.integrate_mass", -1)):
            p = a["parent"][i]
            while p >= 0 and a["name"][p] != calibrate:
                p = a["parent"][p]
            in_calibration += p >= 0
        return {
            "calls": {n: int(calls[i]) for i, n in enumerate(self.names)},
            "total_s": {n: float(total[i]) for i, n in enumerate(self.names)},
            "self_s": {n: float(self_s[i]) for i, n in enumerate(self.names)},
            "integrate_mass_in_calibration": int(in_calibration),
        }

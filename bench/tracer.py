"""Span tracer that wraps the package's public functions from outside.

``from .qcore import eig_hermitian`` binds the function object into the
importing module too, so patching ``qcore`` alone would miss those
calls.  ``install`` therefore replaces every binding of a wrapped
function in every ``posqubit`` module namespace, and ``uninstall``
restores them all.

Spans (name, start, end, parent, point) stay in flat arrays in memory
and are written out once, by ``save``.  A span's self time is its
duration minus the time covered by its child spans.  The callables
returned by the signal factories are counted, not spanned: a Rabi point
makes hundreds of thousands of them.
"""

import functools
import inspect
import sys
from array import array
from time import perf_counter

PACKAGE = "posqubit"
LAYERS = ("cli", "qcore", "signals", "single_qubit", "two_qubit", "measurement", "decoherence", "spectral")
SIGNAL_FACTORIES = ("constant", "sinusoid", "table")


class Tracer:
    def __init__(self):
        self.names = []
        self.originals = []  # name id -> wrapped function
        self.calls = []
        self.self_s = []
        self.signal_evals = 0
        self.point = -1
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.point_id = array("i")
        self._stack = []  # [span index, time covered by children]
        self._patches = []  # (module, attribute, original)
        self.bindings_patched = 0

    # -- wrapping -------------------------------------------------------

    def _public_functions(self, module):
        for attr, value in sorted(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            if value.__module__ == module.__name__:
                yield attr, value

    def _span(self, fid, fn):
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name_id.append(fid)
            tracer.parent.append(stack[-1][0] if stack else -1)
            tracer.point_id.append(tracer.point)
            tracer.end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            tracer.start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.end[idx] = t1
                dur = t1 - t0
                tracer.calls[fid] += 1
                tracer.self_s[fid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return wrapper

    def _counting_factory(self, factory_wrapper):
        tracer = self

        @functools.wraps(factory_wrapper)
        def make(*args, **kwargs):
            sig = factory_wrapper(*args, **kwargs)

            def counted(t):
                tracer.signal_evals += 1
                return sig(t)

            return counted

        return make

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        replacement = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in self._public_functions(module):
                if id(fn) in replacement:
                    continue
                fid = len(self.names)
                self.names.append(f"{layer}.{attr}")
                self.originals.append(fn)
                self.calls.append(0)
                self.self_s.append(0.0)
                wrapped = self._span(fid, fn)
                if layer == "signals" and attr in SIGNAL_FACTORIES:
                    wrapped = self._counting_factory(wrapped)
                replacement[id(fn)] = wrapped
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in replacement:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement[id(value)])
        self.bindings_patched = len(self._patches)
        return self

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    # -- results ----------------------------------------------------------

    def counts(self):
        return dict(zip(self.names, self.calls))

    def self_times(self):
        return dict(zip(self.names, self.self_s))

    def save(self, path, meta):
        """Write every span, with the name table and ``meta``, as one .npz file."""
        import json

        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            point=np.frombuffer(self.point_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            meta=np.array(json.dumps(meta, sort_keys=True)),
        )

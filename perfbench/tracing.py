"""Span tracer for the traced run.

The tracer wraps functions of the loopcs layers from outside the package:
each wrapped call records a span (name, start, end, parent) in memory, and
the spans are written out when the run ends.  A function is replaced under
every name it is bound to in every loaded ``loopcs`` module, so a call made
through ``from .geometry import christoffel_table`` in ``loopcs.symbols`` is
traced as well as one through ``loopcs.geometry``.

A call made while the innermost open span already has the same name is not
recorded again: recursion in ``expressions.evaluate`` and the
cs_density -> _density_complex -> density_traces chain each count once.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

# span name -> the functions it wraps, as (module, "attr" or "Class.method").
# chern_simons.density lists the three functions a density evaluation can
# enter through: cs_density (Simpson ladder, density_grid), _density_complex
# (the report grid of cs_class) and density_traces.
LAYER_FUNCTIONS = {
    "expressions.parse": [("loopcs.expressions", "parse_expression")],
    "expressions.evaluate": [("loopcs.expressions", "evaluate")],
    "geometry.metric_init": [("loopcs.geometry", "BergerMetric.__post_init__")],
    "geometry.scale_jets": [("loopcs.geometry", "BergerMetric.scale_jets")],
    "geometry.log_rate_jets": [("loopcs.geometry", "BergerMetric.log_rate_jets")],
    "geometry.christoffel_table": [("loopcs.geometry", "christoffel_table")],
    "geometry.coefficient_set": [("loopcs.geometry", "coefficient_set")],
    "symbols.sigma0": [("loopcs.symbols", "sigma0_connection")],
    "symbols.sigma_minus1": [("loopcs.symbols", "sigma_minus1_connection_beta")],
    "symbols.curvature": [("loopcs.symbols", "curvature_form_beta")],
    "forms.wedge": [("loopcs.forms", "wedge")],
    "forms.trace": [("loopcs.forms", "trace")],
    "chern_simons.density": [("loopcs.chern_simons", "cs_density"),
                             ("loopcs.chern_simons", "_density_complex"),
                             ("loopcs.chern_simons", "density_traces")],
    "chern_simons.cs_class": [("loopcs.chern_simons", "cs_class")],
    "chern_simons.sweep": [("loopcs.chern_simons", "sweep")],
    "quadrature.integrate": [("loopcs.quadrature", "integrate_circle")],
    "cli.main": [("loopcs.cli", "main")],
}
SAMPLE_PARAMETER = "alpha"   # its size is the sample count of a density span

# Per-layer metrics of the traced run, per operation: (name, unit).
SPAN_METRICS = [
    ("expressions.parse.self_ms", "ms"),
    ("expressions.evaluate.calls", "count"),
    ("expressions.evaluate.self_ms", "ms"),
    ("geometry.metric_init.self_ms", "ms"),
    ("geometry.metric_init.total_ms", "ms"),
    ("geometry.scale_jets.calls", "count"),
    ("geometry.log_rate_jets.calls", "count"),
    ("geometry.christoffel_table.calls", "count"),
    ("geometry.christoffel_table.self_ms", "ms"),
    ("geometry.coefficient_set.self_ms", "ms"),
    ("symbols.sigma0.self_ms", "ms"),
    ("symbols.sigma_minus1.self_ms", "ms"),
    ("symbols.curvature.self_ms", "ms"),
    ("forms.wedge.calls", "count"),
    ("forms.wedge.self_ms", "ms"),
    ("forms.trace.self_ms", "ms"),
    ("chern_simons.density.calls", "count"),
    ("chern_simons.density.samples", "count"),
    ("chern_simons.density.self_ms", "ms"),
    ("chern_simons.cs_class.self_ms", "ms"),
    ("chern_simons.sweep.self_ms", "ms"),
    ("quadrature.integrate.self_ms", "ms"),
    ("quadrature.refinements", "count"),
    ("cli.main.self_ms", "ms"),
]


def _resolve(module_name: str, path: str):
    owner = sys.modules.get(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    return owner, attr, getattr(owner, attr, None)


class Tracer:
    """In-memory spans plus the patches that produce them."""

    def __init__(self):
        self.spans = []      # [name, parent index or -1, start_ns, end_ns, samples]
        self._stack = []
        self._patches = []   # (owner, attribute, original)
        self.missing = []

    def open(self, name: str, samples: int = 0) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter_ns(), 0, samples])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        params = list(inspect.signature(fn).parameters)
        at = params.index(SAMPLE_PARAMETER) if SAMPLE_PARAMETER in params else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            samples = 0
            if at is not None:
                alpha = args[at] if len(args) > at else kwargs.get(SAMPLE_PARAMETER)
                samples = int(np.size(alpha))
            index = self.open(name, samples)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if (n == "loopcs" or n.startswith("loopcs.")) and m is not None]
        for name, targets in LAYER_FUNCTIONS.items():
            for module_name, path in targets:
                owner, attr, fn = _resolve(module_name, path)
                if fn is None:
                    self.missing.append(f"{module_name}.{path}")
                    continue
                wrapper = self._wrap(name, fn)
                if "." in path:      # a method: one binding, on its class
                    bindings = [(owner, attr)]
                else:
                    bindings = [(m, a) for m in modules
                                for a, v in list(vars(m).items()) if v is fn]
                for where, a in bindings:
                    self._patches.append((where, a, fn))
                    setattr(where, a, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            where, attr, fn = self._patches.pop()
            setattr(where, attr, fn)

    def per_op(self, ops: int) -> dict:
        """Calls, samples and self time per operation for every span name."""
        child_ns = [0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls, samples = defaultdict(int), defaultdict(int)
        self_ns, total_ns = defaultdict(int), defaultdict(int)
        density_under_integrate = 0
        for i, (name, parent, start, end, n) in enumerate(self.spans):
            calls[name] += 1
            samples[name] += n
            total_ns[name] += end - start
            self_ns[name] += end - start - child_ns[i]
            if (name == "chern_simons.density" and parent >= 0
                    and self.spans[parent][0] == "quadrature.integrate"):
                density_under_integrate += 1
        out = {}
        for name in LAYER_FUNCTIONS:
            out[f"{name}.calls"] = calls[name] / ops
            out[f"{name}.samples"] = samples[name] / ops
            out[f"{name}.self_ms"] = self_ns[name] / ops / 1e6
            out[f"{name}.total_ms"] = total_ns[name] / ops / 1e6
        out["quadrature.refinements"] = (
            (density_under_integrate - calls["quadrature.integrate"]) / ops)
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line, times relative to the first."""
        t0 = self.spans[0][2] if self.spans else 0
        with open(path, "w") as fh:
            for i, (name, parent, start, end, n) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "start_ns": start - t0, "end_ns": end - t0,
                                     "samples": n}) + "\n")

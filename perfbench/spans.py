"""Per-layer spans and counters, recorded from the benchmark's side.

`Tracer.installed()` replaces every optquad function at each name it is
bound to -- its defining module and every module that imports it (e.g.
`optquad.cli.build_report`, `optquad.norm.solve_uniform` and the `_eliminate`
that `norm` imports) -- with a wrapper that records a span.  A layer is the
module that defines the function.  Private helpers are wrapped only when
another module imports them; the package's source is not touched.

A layer's self time is the time inside its spans minus the time inside
their child spans.  Counters are read from arguments and results at the
same boundaries.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("cli", "norm", "wiener_hopf", "kernel", "quadrature", "spectral", "coefficients")


def _count(tracer, name, args, result):
    c = tracer.counts
    if name == "build_report":
        c["norm.build_report.calls"] += 1
    elif name == "_eliminate":
        c["wiener_hopf.solves"] += 1
        c["wiener_hopf.unknowns_cubed"] += args[1].size ** 3
    elif name == "solve_dense":
        c["wiener_hopf.residual_inf_max"] = max(
            c["wiener_hopf.residual_inf_max"], result.residual_inf)
    elif name == "psi":
        c["kernel.psi_elems"] += int(np.size(args[1]))
    elif name == "norm_quadratic_form":
        c["norm.quadform.pairs"] += args[0].nodes.size ** 2
    elif name == "integrate_adaptive":
        c["kernel.integrate_evals"] += result.evaluations
    elif name == "optimal_coefficients":
        c["coefficients.weights"] += result.coefficients.size


class Tracer:
    """In-memory spans [layer, start, end, parent index] plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def wrap(self, fn, layer: str):
        name = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [layer, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[1], span[2] = start, time.perf_counter()
                self._stack.pop()
            _count(self, name, args, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for (layer, start, end, _), inner in zip(self.spans, child):
            out[layer] += end - start - inner
        return out

    @contextlib.contextmanager
    def installed(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name.startswith("optquad.") and m is not None]
        bindings = [(m, attr, fn) for m in modules for attr, fn in vars(m).items()
                    if inspect.isfunction(fn) and fn.__module__.startswith("optquad.")]
        imported = {id(fn) for m, _, fn in bindings if fn.__module__ != m.__name__}
        wrappers: dict[int, object] = {}
        patched = []
        for m, attr, fn in bindings:
            if attr.startswith("_") and id(fn) not in imported:
                continue
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self.wrap(fn, fn.__module__.rsplit(".", 1)[1])
            setattr(m, attr, wrappers[id(fn)])
            patched.append((m, attr, fn))
        try:
            yield self
        finally:
            for m, attr, fn in patched:
                setattr(m, attr, fn)

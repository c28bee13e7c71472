"""Span recorder that traces torwave from outside, without editing `src/`.

`Tracer.installed()` rebinds each traced public function in every `torwave`
module namespace that holds it (so `harness.analyze` and `wavelets.analyze`
both record), wraps the listed class methods, and counts calls into
`numpy.roll` and `numpy.fft.{fftn,ifftn}`.  Leaving the context restores
every original binding.

Each span records its name, request id, parent span, start and end.  The
request id numbers the `run_suite` calls of a pass; the `run_suite` span
itself is named `harness.run_suite.<suite>`.  A span's self time is its
duration minus the durations of its direct children; no traced name calls
itself, so a name's total time is the sum of its span durations.  numpy
calls are counted, not spanned, so their time stays in the caller's self
time.  numpy bytes are computed from array sizes (input plus output), not
measured traffic.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

import numpy as np

FUNCTIONS = (
    ("wavelets", "analyze"), ("wavelets", "synthesize"),
    ("wavelets", "projection_stack"),
    ("paraproducts", "paraproducts"), ("paraproducts", "s_operator"),
    ("operators", "p_delta"), ("operators", "wavelet_matrix"),
    ("operators", "almost_diagonal_envelope_fit"),
    ("operators", "pdelta_composition_check"),
    ("sublinear", "window_max"), ("sublinear", "window_mean"),
    ("norms", "oscillation_norm"), ("norms", "hardy_norm"),
    ("samples", "random_bmo"), ("samples", "random_h1_tree"),
    ("commutators", "bilinear_decomposition"),
    ("commutators", "subbilinear_envelope"),
    ("commutators", "h1b_characterizations"), ("commutators", "commutator_apply"),
)
METHODS = (
    ("operators", "MultiplierOperator", "apply"),
    ("sublinear", "GrandMaximal", "apply"),
    ("sublinear", "GrandMaximal", "pointwise_shifted"),
    ("sublinear", "LusinArea", "apply"),
    ("sublinear", "LusinArea", "pointwise_shifted"),
)
KERNELS = (("numpy.roll", np, "roll"), ("numpy.fft", np.fft, "fftn"),
           ("numpy.fft", np.fft, "ifftn"))
# suites that the benchmark workloads run, one composite span name each
SUITES = ("reconstruction", "product_identity", "commutator_identity",
          "boundedness_sweep", "almost_diagonal", "sandwich", "h1b_equivalence")

SPAN_NAMES = tuple(f"{module}.{name}" for module, name in FUNCTIONS) \
    + tuple(f"{module}.{cls}.{name}" for module, cls, name in METHODS)
SUITE_SPANS = tuple(f"harness.run_suite.{suite}" for suite in SUITES)


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in registry order."""
    units = {}
    for span in SPAN_NAMES:
        units.update({f"{span}.calls": "count", f"{span}.self_s": "s",
                      f"{span}.total_s": "s", f"{span}.errors": "count"})
    for span in SUITE_SPANS:
        units.update({f"{span}.self_s": "s", f"{span}.total_s": "s",
                      f"{span}.errors": "count"})
    for kernel in dict.fromkeys(k for k, _, _ in KERNELS):
        units.update({f"{kernel}.calls": "count", f"{kernel}.bytes": "B"})
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Spans and kernel counts of one traced pass."""

    def __init__(self):
        self.spans = []        # (name, request, parent index, start, end)
        self.errors = dict.fromkeys(SPAN_NAMES + SUITE_SPANS, 0)
        self.kernels = {name: [0, 0] for name, _, _ in KERNELS}  # calls, bytes
        self.request = -1
        self._stack = []

    def _record(self, name, fn, args, kwargs):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.errors[name] += 1
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, self.request, parent, start, end)

    def _span(self, name, fn):
        def traced(*args, **kwargs):
            return self._record(name, fn, args, kwargs)
        return functools.wraps(fn)(traced)

    def _run_suite(self, fn):
        def traced(config, *args, **kwargs):
            self.request += 1
            return self._record(f"harness.run_suite.{config.suite}", fn,
                                (config, *args), kwargs)
        return functools.wraps(fn)(traced)

    def _kernel(self, name, fn):
        counts = self.kernels[name]

        def counted(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            counts[0] += 1
            counts[1] += np.asarray(a).nbytes + out.nbytes
            return out
        return functools.wraps(fn)(counted)

    @contextlib.contextmanager
    def installed(self):
        """Trace every listed torwave entry point while the context is open."""
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name == "torwave" or name.startswith("torwave.")}
        patches = []

        def rebind(original, wrapped):
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

        try:
            for module, name in FUNCTIONS:
                original = getattr(modules[f"torwave.{module}"], name)
                rebind(original, self._span(f"{module}.{name}", original))
            original = modules["torwave.harness"].run_suite
            rebind(original, self._run_suite(original))
            for module, cls_name, name in METHODS:
                cls = getattr(modules[f"torwave.{module}"], cls_name)
                original = cls.__dict__[name]
                patches.append((cls, name, original))
                setattr(cls, name, self._span(f"{module}.{cls_name}.{name}", original))
            for kernel, owner, name in KERNELS:
                original = getattr(owner, name)
                patches.append((owner, name, original))
                setattr(owner, name, self._kernel(kernel, original))
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def metrics(self) -> dict:
        """Per-layer metrics of this pass; names never reached read 0."""
        child = [0.0] * len(self.spans)
        for name, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: 0.0 if unit == "s" else 0 for name, unit in metric_units().items()
               if name != "trace.overhead_s"}
        for name, count in self.errors.items():
            out[f"{name}.errors"] = count
        for index, (name, _, _, start, end) in enumerate(self.spans):
            if f"{name}.calls" in out:
                out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - child[index]
            out[f"{name}.total_s"] += end - start
        for kernel, (calls, nbytes) in self.kernels.items():
            out[f"{kernel}.calls"] = calls
            out[f"{kernel}.bytes"] = nbytes
        return out

    def span_table(self, origin: float) -> dict:
        """Spans in compact columns, times in seconds from `origin`."""
        names = list(dict.fromkeys(span[0] for span in self.spans))
        index = {name: i for i, name in enumerate(names)}
        return {"names": names,
                "columns": ["name", "request", "parent", "start_s", "end_s"],
                "spans": [[index[name], request, parent, start - origin, end - origin]
                          for name, request, parent, start, end in self.spans]}

"""Spans and counts recorded around `sil`'s public functions.

`sil` modules import each other's functions by name, so a wrapper has to
replace the name in every module namespace that holds it, not only in the
module that defines it.  Spans stay in memory and are written out when the
round ends.  A span's self time is its duration minus the time covered by its
direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import tracemalloc
from collections import Counter, defaultdict


class Tracer:
    """Records spans (name, start, end, parent) while `active` is true."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.active = False
        self.spans = []          # [name, start, end, parent index, child time]
        self.stack = []
        self.counts = Counter()
        self.inclusive = Counter()   # seconds under a per-call label
        self.peaks = defaultdict(float)  # MB, max over calls

    def wrap(self, fn, name, counters=None, label=None, peak=False):
        """Wrapper around fn that records a span called `name`.

        counters maps a counter name to f(args, kwargs, result), the amount
        one call adds; label(args) names an extra inclusive timer; peak
        records the tracemalloc peak inside the span as `<name>_peak_mb`.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [name, time.perf_counter(), 0.0, parent, 0.0]
            tracer.spans.append(span)
            tracer.stack.append(len(tracer.spans) - 1)
            measure = peak and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if measure:
                    top = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    tracer.peaks[name] = max(tracer.peaks[name], top)
                span[2] = time.perf_counter()
                tracer.stack.pop()
                if parent >= 0:
                    tracer.spans[parent][4] += span[2] - span[1]
                if label is not None:
                    tracer.inclusive[label(args)] += span[2] - span[1]
            tracer.counts[name + "_calls"] += 1
            for counter, amount in (counters or {}).items():
                tracer.counts[counter] += amount(args, kwargs, result)
            return result

        return wrapper

    def self_times(self) -> dict:
        out = Counter()
        for name, start, end, _, child in self.spans:
            out[name] += (end - start) - child
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"trace_id": self.trace_id,
                       "fields": ["name", "start", "end", "parent", "child_s"],
                       "spans": self.spans}, fh)


def install(tracer: Tracer, targets) -> None:
    """Replace every reference to each target function inside `sil`.

    targets: (owner, attribute, span name, options) where owner is a module
    or a class; class attributes are replaced on the class, keeping
    staticmethods static.
    """
    modules = [m for key, m in sys.modules.items()
               if key == "sil" or key.startswith("sil.")]
    for owner, attr, name, opts in targets:
        original = getattr(owner, attr)
        wrapper = tracer.wrap(original, name, **opts)
        if inspect.isclass(owner):
            static = isinstance(inspect.getattr_static(owner, attr), staticmethod)
            setattr(owner, attr, staticmethod(wrapper) if static else wrapper)
            continue
        replaced = 0
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    replaced += 1
        if not replaced:
            raise RuntimeError(f"{attr} not found in any sil module")

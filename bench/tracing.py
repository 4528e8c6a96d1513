"""Span tracer for the benchmark's per-layer run.

The tracer wraps every public function of each layer module, and replaces
the function at every name it is bound to: in its own module, in other
nchvsim modules that import it by name (``reports`` binds
``sample_counts``, for example), and in the benchmark's own modules.  Each
call records one span (name, start, end, parent span, op id).  Calls,
inclusive time, self time and errors are summed per function as spans
close; the spans themselves are kept in memory, up to a cap, and written
out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
from array import array
from contextlib import contextmanager
from time import perf_counter

# Spans kept for writing out; aggregates cover every call regardless.
MAX_KEPT_SPANS = 100_000


class Tracer:
    def __init__(self, layers: dict, hooks: dict):
        """``layers`` maps a layer name to its module.  ``hooks`` maps a
        function name ("layer.function") to a callable run after each
        successful call as ``hook(args, kwargs, result)``."""
        self.layers = layers
        self.hooks = hooks
        self.op = -1
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.errors: list[int] = []
        self.dropped = 0
        self._stack: list[list] = []
        self._next_span = 0
        self._origin = perf_counter()
        self._kept = {key: array("q") for key in ("span", "name", "parent", "op")}
        self._kept_times = {key: array("d") for key in ("start", "end")}

    def _wrap(self, index: int, fn):
        stack = self._stack
        hook = self.hooks.get(self.names[index])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._next_span
            self._next_span += 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0.0]
            stack.append(frame)
            raised = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[index] += 1
                self.total[index] += duration
                self.self_time[index] += duration - frame[1]
                self.errors[index] += raised
                self._keep(span, index, parent, start, end)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _keep(self, span, index, parent, start, end):
        if len(self._kept["span"]) >= MAX_KEPT_SPANS:
            self.dropped += 1
            return
        for key, value in (("span", span), ("name", index), ("parent", parent), ("op", self.op)):
            self._kept[key].append(value)
        self._kept_times["start"].append(start - self._origin)
        self._kept_times["end"].append(end - self._origin)

    @contextmanager
    def installed(self, namespaces):
        """Wrap the layers' public functions at every binding found in
        ``namespaces`` (modules) for the duration of the block."""
        wrappers = {}
        for layer, module in self.layers.items():
            for name, obj in vars(module).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                self.names.append(f"{layer}.{name}")
                for series, zero in ((self.calls, 0), (self.total, 0.0),
                                     (self.self_time, 0.0), (self.errors, 0)):
                    series.append(zero)
                wrappers[obj] = self._wrap(len(self.names) - 1, obj)
        patched = []
        try:
            for module in namespaces:
                for name, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        setattr(module, name, wrappers[obj])
                        patched.append((module, name, obj))
            yield self
        finally:
            for module, name, obj in reversed(patched):
                setattr(module, name, obj)

    def function(self, *names: str) -> tuple[int, float]:
        """Calls and inclusive seconds summed over the named functions."""
        picked = [k for k, name in enumerate(self.names) if name in names]
        return sum(self.calls[k] for k in picked), sum(self.total[k] for k in picked)

    def layer(self, layer: str) -> tuple[int, float, int]:
        """Calls, self seconds and errors summed over a layer's functions."""
        picked = [k for k, name in enumerate(self.names) if name.split(".")[0] == layer]
        return (
            sum(self.calls[k] for k in picked),
            sum(self.self_time[k] for k in picked),
            sum(self.errors[k] for k in picked),
        )

    def write(self, path) -> None:
        """One JSON object per kept span, in the order the spans closed."""
        kept, times = self._kept, self._kept_times
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"spans_kept": len(kept["span"]),
                                     "spans_dropped": self.dropped}) + "\n")
            for k in range(len(kept["span"])):
                parent = kept["parent"][k]
                handle.write(json.dumps({
                    "span": kept["span"][k],
                    "name": self.names[kept["name"][k]],
                    "start_us": round(times["start"][k] * 1e6, 3),
                    "end_us": round(times["end"][k] * 1e6, 3),
                    "parent": None if parent < 0 else parent,
                    "op": kept["op"][k],
                }) + "\n")

"""Spans around calls into qpakit's public functions, kept in memory.

The tracer replaces a function where its callers look it up (a module
attribute) with a wrapper that records a span: name, start, end, parent span
and operation id.  Functions called thousands of times per operation
(``hot``) are not recorded one span each: their calls and time are summed per
parent span, which keeps a run's memory flat.  A span's self time is its
duration minus the time its child spans and hot calls cover.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter_ns

# (layer name, module, attribute, hot) for every wrapped function.  check_all
# is wrapped twice because recognize reaches it through qpakit.evolve.
TARGETS = [
    ("io.qpa_loads", "qpakit.io", "qpa_loads", False),
    ("io.qpa_dumps", "qpakit.io", "qpa_dumps", False),
    ("model.validate_structure", "qpakit.io", "validate_structure", False),
    ("dfa2rpa.compile_dfa", "qpakit.dfa2rpa", "compile_dfa", False),
    ("zoo.fixture_specs", "qpakit.zoo", "fixture_specs", False),
    ("wellformed.check_all", "qpakit.wellformed", "check_all", False),
    ("wellformed.check_all", "qpakit.evolve", "check_all", False),
    ("wellformed.check_local_probability", "qpakit.wellformed", "check_local_probability", False),
    ("wellformed.check_column_orthogonality", "qpakit.wellformed", "check_column_orthogonality", False),
    ("wellformed.check_row_norm", "qpakit.wellformed", "check_row_norm", False),
    ("wellformed.check_separability", "qpakit.wellformed", "check_separability", False),
    ("evolve.recognize", "qpakit.evolve", "recognize", False),
    ("evolve.apply_evolution", "qpakit.evolve", "apply_evolution", True),
    ("evolve.measure", "qpakit.evolve", "measure", True),
    ("evolve.step_targets", "qpakit.matrixlab", "step_targets", True),
    ("matrixlab.enumerate_window", "qpakit.matrixlab", "enumerate_window", False),
    ("matrixlab.build_matrix", "qpakit.matrixlab", "build_matrix", False),
    ("matrixlab.check_truncated_unitarity", "qpakit.matrixlab", "check_truncated_unitarity", False),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start_ns, end_ns, parent, op]
        self.hot: dict[tuple[int, str], list[int]] = {}   # (parent, name) -> [calls, ns]
        self.observers: dict[str, object] = {}
        self.originals: dict[tuple[str, str], object] = {}
        self._open = [-1]
        self.op = -1

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = [name, perf_counter_ns(), 0, self._open[-1], self.op]
        self.spans.append(rec)
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            rec[2] = perf_counter_ns()

    def _wrap(self, name, fn, hot):
        tracer = self
        if hot:
            def wrapper(*args, **kwargs):
                t0 = perf_counter_ns()
                result = fn(*args, **kwargs)
                dt = perf_counter_ns() - t0
                acc = tracer.hot.setdefault((tracer._open[-1], name), [0, 0])
                acc[0] += 1
                acc[1] += dt
                observe = tracer.observers.get(name)
                if observe is not None:
                    observe(result)
                return result
        else:
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, modules: dict) -> None:
        for name, mod, attr, hot in TARGETS:
            owner = modules[mod]
            fn = getattr(owner, attr)
            self.originals[(mod, attr)] = fn
            setattr(owner, attr, self._wrap(name, fn, hot))

    # --- reading the record ------------------------------------------------

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span with this name."""
        return [(s[2] - s[1]) / 1e9 for s in self.spans if s[0] == name]

    def self_times(self, name: str) -> list[float]:
        covered = [0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                covered[s[3]] += s[2] - s[1]
        for (parent, _), (_, ns) in self.hot.items():
            if parent >= 0:
                covered[parent] += ns
        return [(s[2] - s[1] - covered[i]) / 1e9
                for i, s in enumerate(self.spans) if s[0] == name]

    def hot_totals(self, name: str, parent_name: str | None = None) -> tuple[int, float]:
        """Calls and seconds of a hot function, optionally under one parent span name."""
        calls = ns = 0
        for (parent, n), (c, t) in self.hot.items():
            if n != name:
                continue
            if parent_name is not None and (parent < 0 or self.spans[parent][0] != parent_name):
                continue
            calls += c
            ns += t
        return calls, ns / 1e9

    def dump(self, path) -> None:
        doc = {
            "fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": self.spans,
            "hot": [[p, n, c, t] for (p, n), (c, t) in self.hot.items()],
        }
        path.write_text(json.dumps(doc), encoding="utf-8")

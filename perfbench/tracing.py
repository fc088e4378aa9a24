"""Spans around the public calls of ``sugra``, recorded from outside.

``install()`` replaces each listed public function, in every loaded
``sugra`` module that holds a reference to it, by a wrapper that records a
span: name, start, end, parent span and run id.  Spans are kept in memory
and written once, by ``write()``.  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict

# (module, function, span name).  Each span name is the layer (module) and
# the public call, so a layer's time is the self time of its spans.
TRACED = [
    ("sugra.catalog", "build", "catalog.build"),
    ("sugra.bgfile", "parse_background_file", "bgfile.parse_background_file"),
    ("sugra.bgfile", "parse_background_text", "bgfile.parse_background_text"),
    ("sugra.bgfile", "render_background", "bgfile.render_background"),
    ("sugra.equations", "sample_points", "equations.sample_points"),
    ("sugra.equations", "verify", "equations.verify"),
    ("sugra.equations", "closedness_residual", "equations.closedness_residual"),
    ("sugra.equations", "maxwell_residual", "equations.maxwell_residual"),
    ("sugra.equations", "einstein_residual", "equations.einstein_residual"),
    ("sugra.equations", "trace_check", "equations.trace_check"),
    ("sugra.equations", "diagnose_reduced_case", "equations.diagnose_reduced_case"),
    ("sugra.forms", "sym_inverse", "forms.sym_inverse"),
    ("sugra.forms", "hodge", "forms.hodge"),
    ("sugra.forms", "ext_d", "forms.ext_d"),
    ("sugra.geometry", "christoffel", "geometry.christoffel"),
    ("sugra.geometry", "ricci", "geometry.ricci"),
    ("sugra.expr", "compile_expr", "expr.compile_expr"),
    ("sugra.cli", "build_report", "cli.build_report"),
    ("sugra.cli", "report_to_json", "cli.report_to_json"),
]

# Per-layer time metrics: the summed self time of these spans.
LAYER_SPANS = {
    "cli.import_s": ["cli.import"],
    "cli.report_s": ["cli.build_report", "cli.report_to_json"],
    "catalog.build_s": ["catalog.build"],
    "bgfile.parse_s": ["bgfile.parse_background_file", "bgfile.parse_background_text"],
    "bgfile.render_s": ["bgfile.render_background"],
    "equations.sample_s": ["equations.sample_points"],
    "forms.sym_inverse_s": ["forms.sym_inverse"],
    "forms.hodge_s": ["forms.hodge"],
    "forms.ext_d_s": ["forms.ext_d"],
    "geometry.christoffel_s": ["geometry.christoffel"],
    "geometry.ricci_s": ["geometry.ricci"],
    "expr.compile_s": ["expr.compile_expr"],
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.enabled = True
        self.spans: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        span = {"name": name, "parent": stack[-1] if stack else None, "run": self.run_id}
        self.spans.append(span)
        stack.append(len(self.spans) - 1)
        span["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """A top-level span timed by the caller (e.g. ``import sugra``)."""
        self.spans.append({"name": name, "parent": None, "run": self.run_id,
                           "start": start, "end": end})

    def self_times(self) -> dict[str, float]:
        """Self time per span name: span duration minus its children's."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s["name"]] += s["end"] - s["start"] - child[i]
        return out

    def layer_metrics(self) -> dict[str, float]:
        selfs = self.self_times()
        out = {metric: sum(selfs.get(n, 0.0) for n in names)
               for metric, names in LAYER_SPANS.items()}
        drawn = self.counts["sample_drawn"]
        out["equations.sample_accept_ratio"] = (
            self.counts["sample_kept"] / drawn if drawn else 1.0)
        out["expr.compile_fallbacks"] = self.counts["compile_fallbacks"]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run": self.run_id, "spans": self.spans}, fh)


def _wrapper(tracer: Tracer, name: str, fn):
    if name == "equations.sample_points":
        def sample_points(box, count, seed, predicate=None):
            if not tracer.enabled:
                return fn(box, count, seed, predicate)
            calls = [0]
            counted = None
            if predicate is not None:
                def counted(point):
                    calls[0] += 1
                    return predicate(point)
            pts = tracer.call(name, fn, (box, count, seed, counted), {})
            tracer.counts["sample_drawn"] += calls[0] if predicate is not None else len(pts)
            tracer.counts["sample_kept"] += len(pts)
            return pts
        return sample_points
    if name == "expr.compile_expr":
        def compile_expr(e):
            compiled = tracer.call(name, fn, (e,), {})
            # The compiled path names its code "<expr>"; anything else is the
            # interpreted fallback.
            if tracer.enabled and compiled.__code__.co_filename != "<expr>":
                tracer.counts["compile_fallbacks"] += 1
            return compiled
        return compile_expr

    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    traced.__name__ = getattr(fn, "__name__", name)
    return traced


def install(tracer: Tracer) -> None:
    """Wrap every ``TRACED`` function wherever a ``sugra`` module refers to it."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "sugra" or n.startswith("sugra."))]
    for module_name, attr, span_name in TRACED:
        original = getattr(sys.modules[module_name], attr, None)
        if original is None:  # a call the program no longer has: its layer reads 0
            continue
        wrapped = _wrapper(tracer, span_name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)

"""Spans and counters recorded from outside the program.

:class:`Tracer` replaces public functions of ``anomattr`` with wrappers that
record a span (name, start, end, parent) per call and count model queries.
Nothing in the program changes: the wrappers are module attributes set
while tracing and restored afterwards.  Names bound by ``from .models
import ...`` are wrapped where they are looked up (``anomattr.gpa``,
``anomattr.baselines``), since replacing ``anomattr.models`` alone would not
reach them.

Self time is computed as spans close: a span's duration minus the time its
direct children cover.  Totals per name are kept for every span; the spans
themselves are kept in memory up to ``MAX_SPANS`` and written once, at the
end, by :meth:`Tracer.write`.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from collections import defaultdict
from functools import wraps
from pathlib import Path

BASELINE_METHODS = (
    "lc", "lime", "integrated_gradient", "expected_integrated_gradient",
    "shapley_sampled", "z_score",
)
# layers whose public functions call each other (ig inside eig,
# anomaly_score inside collective_anomaly_score): a call from the same layer
# is counted once, in its caller
SELF_CALLING_LAYERS = ("baselines.", "metrics")
# spans kept for the trace file; later ones are counted but not kept
MAX_SPANS = 200_000
EMIT_PATH_ARG = {"emit_result_json": 1, "emit_litmus_svg": 1,
                 "emit_distribution_svg": 2}


class Tracer:
    def __init__(self, store_spans: bool = False):
        self.store_spans = store_spans
        # stored spans, one array per column: arrays of numbers are not
        # tracked by the garbage collector, so keeping many costs little
        self.spans = {"id": array("q"), "name": array("i"), "start": array("d"),
                      "end": array("d"), "parent": array("q")}
        self.names: dict[str, int] = {}
        self.dropped = 0
        # name -> [calls, seconds, self seconds, adapter points, adapter calls]
        self.totals = defaultdict(lambda: [0, 0.0, 0.0, 0, 0])
        self.points = 0
        self.calls = 0
        self.emit_bytes = 0
        # owner span name -> [solves, iterations, value evaluations, points]
        self.solver = defaultdict(lambda: [0, 0, 0, 0])
        self._saved: list[tuple] = []
        self._next_id = 0
        # open spans: [id, name, time covered by children]
        self._stack: list[list] = []

    # -- spans --------------------------------------------------------------

    def span(self, name: str, fn):
        """Record a span named ``name`` around each call of ``fn``."""
        clock = time.perf_counter
        stack = self._stack
        total = self.totals[name]
        layer = next((p for p in SELF_CALLING_LAYERS if name.startswith(p)), None)
        nested = self.totals[name + "~nested"]

        @wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            own = total
            if layer and parent is not None and parent[1].startswith(layer):
                own = nested
            entry = [self._next_id, name, 0.0]
            self._next_id += 1
            points, calls = self.points, self.calls
            stack.append(entry)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                own[0] += 1
                own[1] += duration
                own[2] += duration - entry[2]
                own[3] += self.points - points
                own[4] += self.calls - calls
                if self.store_spans:
                    self._store(entry[0], name, start, end, parent)

        return wrapper

    def _store(self, span_id, name, start, end, parent) -> None:
        spans = self.spans
        if len(spans["id"]) >= MAX_SPANS:
            self.dropped += 1
            return
        spans["id"].append(span_id)
        spans["name"].append(self.names.setdefault(name, len(self.names)))
        spans["start"].append(start)
        spans["end"].append(end)
        spans["parent"].append(parent[0] if parent else -1)

    def root(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a root span (one CLI operation)."""
        return self.span(name, fn)(*args, **kwargs)

    # -- wrappers -----------------------------------------------------------

    def _adapter(self, fn, batch: bool):
        traced = self.span("models.adapter", fn)

        @wraps(fn)
        def wrapper(handle, x):
            self.calls += 1
            self.points += len(x) if batch else 1
            return traced(handle, x)

        return wrapper

    def _solver(self, fn):
        @wraps(fn)
        def wrapper(grad_fn, value_fn, *args, **kwargs):
            owner = self._stack[-1][1] if self._stack else "?"
            counts = self.solver[owner]
            counts[0] += 1

            def counted_grad(delta):
                counts[1] += 1
                return grad_fn(delta)

            def counted_value(delta):
                counts[2] += 1
                return value_fn(delta)

            points0 = self.points
            try:
                return fn(counted_grad, counted_value, *args, **kwargs)
            finally:
                counts[3] += self.points - points0

        return wrapper

    def _emit(self, fn, path_arg: int):
        traced = self.span("dataio.emit", fn)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            result = traced(*args, **kwargs)
            self.emit_bytes += Path(args[path_arg]).stat().st_size
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the program's public functions; undone by :meth:`uninstall`."""
        from anomattr import baselines, cli, dataio, gpa, metrics, models

        targets = [
            (models.ModelHandle, "evaluate", self._adapter(models.ModelHandle.evaluate, False)),
            (models.ModelHandle, "evaluate_batch",
             self._adapter(models.ModelHandle.evaluate_batch, True)),
            (cli, "resolve_model", self.span("models.resolve", cli.resolve_model)),
            (dataio, "load_csv", self.span("dataio.load_csv", dataio.load_csv)),
            (gpa, "map_estimate", self.span("gpa.map_estimate", gpa.map_estimate)),
            (gpa, "score_distributions",
             self.span("gpa.score_distributions", gpa.score_distributions)),
            (gpa, "init_gamma_rate", self.span("gpa.rates", gpa.init_gamma_rate)),
            (gpa, "refine_gamma_rate", self.span("gpa.rates", gpa.refine_gamma_rate)),
            (gpa, "proximal_minimize", self._solver(gpa.proximal_minimize)),
            (baselines, "proximal_minimize", self._solver(baselines.proximal_minimize)),
        ]
        for module in (models, gpa, baselines):
            targets.append((module, "estimate_gradient",
                            self.span("models.estimate_gradient", module.estimate_gradient)))
        for name, arg in EMIT_PATH_ARG.items():
            targets.append((dataio, name, self._emit(getattr(dataio, name), arg)))
        for name in ("anomaly_score", "collective_anomaly_score", "consistency_report"):
            targets.append((metrics, name, self.span("metrics", getattr(metrics, name))))
        for name in BASELINE_METHODS:
            targets.append((baselines, name,
                            self.span(f"baselines.{name}", getattr(baselines, name))))
        for owner, attr, wrapper in targets:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write the stored spans as gzipped JSON lines; a root span has
        parent -1."""
        names = {index: name for name, index in self.names.items()}
        spans = self.spans
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": len(spans["id"]), "dropped": self.dropped}) + "\n")
            for row in zip(*spans.values()):
                doc = dict(zip(spans, row))
                doc["name"] = names[doc["name"]]
                fh.write(json.dumps(doc) + "\n")

"""Benchmark-side spans around the program's layer entry points.

:class:`Tracer` replaces a layer's public functions with timing
wrappers, both where they are defined and at every import site that
bound the name (``from repro.kernel.joins import extend_matches``), so
the program itself is measured unmodified. Each wrapped call records a
span: layer name, start, end, parent span and request id. Spans live in
flat arrays while the run goes and are written out when it ends
(:meth:`Tracer.dump`).

A call made while the innermost open span already belongs to the same
layer is *nested*: it is counted but opens no span (the kernel walkers
recurse through their own module attribute, so each recursion level
would otherwise be a span). Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable, Optional

#: The root span the benchmark opens around each unit of work; its self
#: time is wall time no traced layer covers.
UNIT = "unit"


class Tracer:
    def __init__(self) -> None:
        self.layers: list[str] = [UNIT]
        self._layer_ids = {UNIT: 0}
        self.layer = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.request = array("l")
        self._stack: list[int] = []
        self._stack_layer: list[int] = []
        self.request_id = -1
        self.calls: Counter = Counter()
        self.nested: Counter = Counter()

    # -- recording -----------------------------------------------------

    def _layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def open(self, layer_id: int) -> int:
        index = len(self.start)
        self.layer.append(layer_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self._stack.append(index)
        self._stack_layer.append(layer_id)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()
        self._stack_layer.pop()

    def unit(self, request_id: int):
        """Context manager: one unit of work as the root span."""
        tracer = self

        class _Unit:
            def __enter__(self):
                tracer.request_id = request_id
                self.index = tracer.open(0)

            def __exit__(self, *exc_info):
                tracer.close(self.index)

        return _Unit()

    def wrap(
        self,
        layer: str,
        function: Callable,
        on_result: Optional[Callable] = None,
    ) -> Callable:
        """A timing wrapper for one entry point of ``layer``.

        ``on_result(args, kwargs, result)`` runs after each outermost
        call, outside the span, to update the layer's counters.
        """
        layer_id = self._layer_id(layer)
        stack_layer = self._stack_layer
        calls, nested = self.calls, self.nested
        open_span, close_span = self.open, self.close

        def traced(*args, **kwargs):
            if stack_layer and stack_layer[-1] == layer_id:
                nested[layer] += 1
                return function(*args, **kwargs)
            calls[layer] += 1
            index = open_span(layer_id)
            try:
                result = function(*args, **kwargs)
            finally:
                close_span(index)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", "traced")
        return traced

    def patch_function(self, layer: str, module, name: str, on_result=None) -> None:
        """Wrap ``module.name`` and every ``repro`` module binding it."""
        original = getattr(module, name)
        wrapper = self.wrap(layer, original, on_result)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("repro"):
                namespace = vars(loaded)
                for key, value in list(namespace.items()):
                    if value is original:
                        namespace[key] = wrapper

    def patch_method(self, layer: str, cls, name: str, on_result=None) -> None:
        setattr(cls, name, self.wrap(layer, getattr(cls, name), on_result))

    # -- analysis ------------------------------------------------------

    def unit_seconds(self) -> float:
        """Wall time inside the root spans, summed over the units."""
        start, end = self.start, self.end
        return sum(
            end[index] - start[index]
            for index, layer in enumerate(self.layer)
            if layer == 0
        )

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer: duration minus direct children's."""
        count = len(self.start)
        child = [0.0] * count
        start, end, parent = self.start, self.end, self.parent
        for index in range(count):
            up = parent[index]
            if up >= 0:
                child[up] += end[index] - start[index]
        totals: dict[str, float] = {name: 0.0 for name in self.layers}
        layers, layer = self.layers, self.layer
        for index in range(count):
            totals[layers[layer[index]]] += end[index] - start[index] - child[index]
        return totals

    def dump(self, path: Path) -> None:
        """Write every span: a JSON header at ``path`` and the columns,
        as raw native arrays in the header's order, next to it."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = ("layer", "start", "end", "parent", "request")
        data = path.with_suffix(".bin")
        with open(data, "wb") as stream:
            for column in columns:
                getattr(self, column).tofile(stream)
        header = {
            "layers": self.layers,
            "spans": len(self.start),
            "data": data.name,
            "columns": [[column, getattr(self, column).typecode] for column in columns],
        }
        path.write_text(json.dumps(header, indent=1) + "\n")


def instrument(tracer: Tracer) -> dict:
    """Wrap every in-process layer's entry points; returns the counters.

    The returned dict collects per-layer attributes the spans alone do
    not give: analysis cold calls and pruning, canonical duplicates,
    cache hits and chase steps.
    """
    from importlib import import_module

    # Import every module that binds a wrapped name before patching, so
    # the identity scan in patch_function finds each import site.
    for name in ("repro", "repro.chase.plan", "repro.chase.checkplan", "repro.relational.homplan"):
        import_module(name)
    analysis_report = import_module("repro.analysis.report")
    chase_engine = import_module("repro.chase.engine")
    implication = import_module("repro.chase.implication")
    canonical = import_module("repro.dependencies.canonical")
    json_codec = import_module("repro.io.json_codec")
    joins = import_module("repro.kernel.joins")
    from repro.service.api import InferenceService
    from repro.service.cache import ResultCache

    counters: Counter = Counter()
    seen_premises: set = set()
    seen_fingerprints: set = set()

    for name in ("extend_matches", "has_extension", "violation_walk", "retraction_walk"):
        tracer.patch_function("kernel", joins, name)

    def chase_steps(__args, __kwargs, result) -> None:
        stats = getattr(getattr(result, "chase_result", result), "stats", None)
        if stats is not None:
            counters["chase.steps"] += stats.steps

    tracer.patch_function("chase", implication, "implies", chase_steps)
    tracer.patch_function("chase", chase_engine, "chase", chase_steps)

    def analysis_call(args, kwargs, result) -> None:
        key = tuple(args[0] if args else kwargs["dependencies"])
        if key not in seen_premises:
            seen_premises.add(key)
            counters["analysis.cold_calls"] += 1

    def prune_call(args, kwargs, result) -> None:
        analysis_call(args, kwargs, result)
        counters["analysis.programs"] += 1
        counters["analysis.pruned_rules"] += len(result.dropped)
        counters["analysis.certified"] += result.certificate is not None

    tracer.patch_function("analysis", analysis_report, "analyze", analysis_call)
    tracer.patch_function("analysis", analysis_report, "prune_for_target", prune_call)

    def fingerprint_call(__args, __kwargs, fingerprint) -> None:
        counters["canonical.fingerprints"] += 1
        if fingerprint in seen_fingerprints:
            counters["canonical.duplicates"] += 1
        seen_fingerprints.add(fingerprint)

    tracer.patch_function("canonical", canonical, "query_fingerprint", fingerprint_call)
    for name in ("query_key", "premise_key", "dependency_fingerprint"):
        tracer.patch_function("canonical", canonical, name)

    def lookup_call(__args, __kwargs, entry) -> None:
        counters["cache.lookups"] += 1
        counters["cache.hits"] += entry is not None

    tracer.patch_method("cache.lookup", ResultCache, "lookup", lookup_call)
    tracer.patch_method("cache.record", ResultCache, "record")

    for name in (
        "outcome_to_json",
        "outcome_from_json",
        "dependency_to_json",
        "dependency_from_json",
    ):
        tracer.patch_function("codec", json_codec, name)

    tracer.patch_method("service", InferenceService, "submit")
    tracer.patch_method("service", InferenceService, "run")
    return counters

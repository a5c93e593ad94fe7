"""Per-request run tracing: trace IDs, stage spans and a bounded buffer.

Every query entering the serving pipeline is tagged with a **trace ID**
(client-supplied through the wire format, or generated server-side).
When the run it joined finishes (the server batches by group commit: a
run takes every query that queued while the previous run was busy), the
:class:`~repro.service.api.InferenceService` stores one
:class:`RunTrace` per distinct trace ID in its :class:`TraceBuffer`: the
batch's stage-level :class:`Span` timeline (canonicalize → cache lookup
→ dispatch → record → verify) plus that request's per-query records
(fingerprint, verdict, cache/dedup provenance, chase time). Traces are
retrievable via ``GET /v1/trace/<id>`` and attached inline to responses
requested with ``?debug=1``.

The buffer is a fixed-capacity ring: the newest ``capacity`` traces are
kept, older ones fall off — the answer to "where did *that* slow batch
spend its time?" without unbounded memory.

Like the rest of :mod:`repro.obs`, this module is dependency-free and
imports nothing from the serving stack.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace ID (cheap, collision-negligible)."""
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class Span:
    """One timed pipeline stage inside a run."""

    name: str
    seconds: float
    attrs: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        payload: dict = {"name": self.name, "seconds": self.seconds}
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        return payload

    @staticmethod
    def from_json(payload: object) -> "Span":
        if not isinstance(payload, dict) or "name" not in payload:
            raise ValueError(f"bad span payload {payload!r}")
        return Span(
            name=str(payload["name"]),
            seconds=float(payload.get("seconds", 0.0)),
            attrs=dict(payload.get("attrs", {})),
        )


@dataclass
class RunTrace:
    """One request's view of the batch run that answered it.

    ``spans`` is the batch-level stage timeline (shared by every request
    the run answered); ``queries`` holds only *this* trace's queries.
    ``batch`` summarizes what the whole run did, so a request that was a
    pure cache hit can still see that it shared its run with real chases.
    """

    trace_id: str
    started_at: float = field(default_factory=time.time)
    wall_seconds: float = 0.0
    spans: list[Span] = field(default_factory=list)
    queries: list[dict] = field(default_factory=list)
    batch: dict = field(default_factory=dict)

    def span(self, name: str) -> Optional[Span]:
        for span in self.spans:
            if span.name == name:
                return span
        return None

    def to_json(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "started_at": self.started_at,
            "wall_seconds": self.wall_seconds,
            "spans": [span.to_json() for span in self.spans],
            "queries": [dict(query) for query in self.queries],
            "batch": dict(self.batch),
        }

    @staticmethod
    def from_json(payload: object) -> "RunTrace":
        if not isinstance(payload, dict) or "trace_id" not in payload:
            raise ValueError(f"bad trace payload {payload!r}")
        return RunTrace(
            trace_id=str(payload["trace_id"]),
            started_at=float(payload.get("started_at", 0.0)),
            wall_seconds=float(payload.get("wall_seconds", 0.0)),
            spans=[Span.from_json(span) for span in payload.get("spans", ())],
            queries=[dict(query) for query in payload.get("queries", ())],
            batch=dict(payload.get("batch", {})),
        )


class TraceBuffer:
    """Thread-safe bounded ring of the newest :class:`RunTrace` records.

    Re-putting an existing trace ID replaces the old record and
    refreshes its recency (a retried request keeps its newest trace).
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("trace buffer capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._traces: "OrderedDict[str, RunTrace]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._traces)

    def __contains__(self, trace_id: object) -> bool:
        return trace_id in self._traces

    def put(self, trace: RunTrace) -> None:
        with self._lock:
            self._traces[trace.trace_id] = trace
            self._traces.move_to_end(trace.trace_id)
            while len(self._traces) > self.capacity:
                self._traces.popitem(last=False)

    def get(self, trace_id: str) -> Optional[RunTrace]:
        with self._lock:
            return self._traces.get(trace_id)

    def ids(self) -> list[str]:
        """Stored trace IDs, oldest first."""
        with self._lock:
            return list(self._traces)

"""The batch inference service facade.

:class:`InferenceService` turns many ``D ⊨ d`` questions into one
pipeline: canonical-hash every query, answer what the cache already
knows, deduplicate the rest (structurally identical queries chase once),
and dispatch the misses to the scheduler — serially or across a worker
pool.

Usage::

    service = InferenceService(workers=4)
    report = service.run_batch(dependencies, targets, budget=Budget())
    for item in report.items:
        print(item.target, item.outcome.status, item.from_cache)
    print(report.stats.describe())

Results come back aligned with submission order. A cache or dedup hit
returns the outcome of the *structurally equal* query actually executed:
same verdict and equally valid certificates (implication is invariant
under variable renaming), though the certificate's variable names are
those of the executed representative.

There is one trace policy and one budget policy. Every chase records
its trace, so every served PROVED — cached, deduplicated or resumed
from a checkpoint — carries a replayable proof. Every query runs under
the budget passed to :meth:`InferenceService.run`, however many share
the batch.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.chase.budget import Budget
from repro.chase.engine import replay
from repro.chase.implication import (
    InferenceOutcome,
    InferenceStatus,
    conclusion_satisfied,
)
from repro.chase.maintain import (
    MaintainedModel,
    MaintainInstruments,
    MaintenanceReport,
)
from repro.dependencies.canonical import premise_key, query_fingerprint
from repro.dependencies.classify import Dependency
from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry, Stopwatch
from repro.obs.trace import RunTrace, Span, TraceBuffer, new_trace_id
from repro.service.cache import ResultCache, budget_meet
from repro.service.instruments import ServiceInstruments
from repro.service.scheduler import PoolRun, QueryTask, WorkerPool, serial_run

#: How many recent run traces :attr:`InferenceService.traces` retains for
#: ``GET /v1/trace/<id>``.
TRACE_CAPACITY = 256


class ProofVerificationError(ReproError):
    """A chase-produced PROVED trace failed its replay verification."""


@dataclass
class BatchItem:
    """One answered query, in submission order."""

    index: int
    target: Dependency
    fingerprint: str
    outcome: InferenceOutcome
    from_cache: bool = False
    deduplicated: bool = False


@dataclass
class BatchStats:
    """What one :meth:`InferenceService.run` actually did."""

    submitted: int = 0
    cache_hits: int = 0
    deduplicated: int = 0
    executed: int = 0
    #: Stale-UNKNOWN retries answered by resuming a cached chase
    #: checkpoint instead of re-chasing from row zero.
    resumed: int = 0
    #: Queries answered FAILED (quarantined payloads, exhausted restart
    #: budget) — operational failures, never cached, never verdicts.
    failed: int = 0
    wall_seconds: float = 0.0
    #: Wall seconds spent inside chase dispatches (summed per dispatch,
    #: so parallelism can push this above ``wall_seconds``).
    #: Distinct from ``wall_seconds``, which also covers hashing, cache
    #: traffic and scheduling.
    chase_seconds: float = 0.0

    def describe(self) -> str:
        """One-line summary for logs and the CLI."""
        extras = ""
        if self.resumed:
            extras += f", {self.resumed} resumed from checkpoint"
        if self.failed:
            extras += f", {self.failed} failed"
        return (
            f"{self.submitted} queries: {self.cache_hits} cache hit(s), "
            f"{self.deduplicated} deduplicated, {self.executed} executed"
            f"{extras} "
            f"in {self.wall_seconds:.3f}s "
            f"({self.chase_seconds:.3f}s chasing)"
        )


@dataclass
class BatchReport:
    """Everything one batch produced."""

    items: list[BatchItem]
    stats: BatchStats
    #: The run-level trace ID: queries submitted without an explicit
    #: ``trace_id`` are recorded under this one (see
    #: :attr:`InferenceService.traces`). Empty for a report that
    #: answered nothing.
    trace_id: str = ""

    @property
    def outcomes(self) -> list[InferenceOutcome]:
        """Just the outcomes, aligned with submission order."""
        return [item.outcome for item in self.items]


@dataclass
class _Pending:
    index: int
    dependencies: tuple[Dependency, ...]
    target: Dependency
    fingerprint: str
    trace_id: Optional[str] = None
    #: Seconds spent canonical-hashing this query at submit time.
    canon_seconds: float = 0.0


class InferenceService:
    """Batch ``D ⊨ d`` solving with dedup, caching and a worker pool.

    * ``cache`` — a :class:`~repro.service.cache.ResultCache`; a private
      in-memory one is created when omitted. Passing a disk-backed cache
      makes verdicts survive the process.
    * ``workers`` — 0 runs misses in-process (serial); ``n >= 1`` uses a
      persistent pool of ``n`` processes, forked on the first batch and
      reused by every later one (``close()`` — or using the service as a
      context manager — shuts it down).
    * ``metrics`` — the :class:`~repro.obs.metrics.MetricsRegistry`
      every pipeline stage reports into; a private one is created when
      omitted. Pass a shared registry to aggregate several services
      onto one ``/metrics`` surface.
    * ``verify_proofs`` — replay-verify the trace of every freshly
      chased PROVED outcome (step-by-step validity plus conclusion
      derivation) before recording or serving it; a failure raises
      :class:`ProofVerificationError`. Off by default — it re-does a
      bounded version of the chase's work — but it is what gives the
      ``verify`` stage of ``repro_stage_seconds`` real semantics.
    * ``max_restarts`` — how many in-place worker-pool rebuilds one
      batch may consume after worker crashes before its remaining
      undecided queries are answered FAILED (crash containment lives in
      :meth:`~repro.service.scheduler.WorkerPool.run`; this is its
      retry budget).
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        *,
        workers: int = 0,
        metrics: Optional[MetricsRegistry] = None,
        verify_proofs: bool = False,
        max_restarts: int = 3,
    ):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        self.cache = cache if cache is not None else ResultCache()
        self.workers = workers
        self.max_restarts = max_restarts
        self.verify_proofs = verify_proofs
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.traces = TraceBuffer(TRACE_CAPACITY)
        self._instruments = ServiceInstruments(self.metrics)
        self.cache.bind_metrics(self.metrics)
        self._pending: list[_Pending] = []
        self._worker_pool: Optional[WorkerPool] = None

    def pool(self) -> Optional[WorkerPool]:
        """The persistent worker pool (created on first use; None when
        ``workers == 0``)."""
        if self.workers == 0:
            return None
        if self._worker_pool is None:
            self._worker_pool = WorkerPool(
                self.workers,
                metrics=self.metrics,
                max_restarts=self.max_restarts,
            )
        return self._worker_pool

    def warm_up(self) -> "InferenceService":
        """Fork the worker processes now rather than on the first batch.

        Long-lived callers that dispatch from non-main threads (the HTTP
        server runs batches on an executor thread) should warm up from
        the main thread first.
        """
        pool = self.pool()
        if pool is not None:
            pool.start()
        return self

    def close(self) -> None:
        """Shut down the worker pool and close the cache.

        ``ResultCache.close`` compacts an oversized disk tier (a no-op
        for memory-only caches) and leaves the cache usable, so closing
        a service that shares its cache *object* with others is safe.
        Distinct processes sharing one cache *file* serialize their
        writes through the store's advisory lock where the platform
        provides one (see :class:`~repro.service.cache.JsonLinesStore`).
        """
        if self._worker_pool is not None:
            self._worker_pool.close()
            self._worker_pool = None
        self.cache.close()

    def __enter__(self) -> "InferenceService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def discard_pending(self) -> int:
        """Drop queued-but-unrun queries; returns how many were dropped.

        For callers that manage submission transactionally (the HTTP
        server): a submit() that failed partway must not leave orphans
        whose answers would misalign with a later batch's.
        """
        dropped = len(self._pending)
        self._pending.clear()
        return dropped

    def submit(
        self,
        dependencies: Sequence[Dependency],
        target: Dependency,
        *,
        trace_id: Optional[str] = None,
    ) -> str:
        """Enqueue one query; returns its canonical fingerprint.

        ``trace_id`` tags the query for run tracing: after the batch
        runs, ``self.traces.get(trace_id)`` returns this query's view of
        the run. Untagged queries land under the report's run-level ID.
        """
        return self._enqueue(tuple(dependencies), target, None, trace_id)

    def _enqueue(
        self,
        shared: tuple[Dependency, ...],
        target: Dependency,
        premises: Optional[tuple],
        trace_id: Optional[str],
    ) -> str:
        """Hash one query and queue it; ``premises`` is ``shared``'s
        :func:`~repro.dependencies.canonical.premise_key` when the caller
        already has it."""
        canon_started = time.perf_counter()
        fingerprint = query_fingerprint(shared, target, premises=premises)
        canon_seconds = time.perf_counter() - canon_started
        self._instruments.stage["canonicalize"].observe(canon_seconds)
        self._pending.append(
            _Pending(
                index=len(self._pending),
                dependencies=shared,
                target=target,
                fingerprint=fingerprint,
                trace_id=trace_id,
                canon_seconds=canon_seconds,
            )
        )
        return fingerprint

    def _verify_proof(self, outcome: InferenceOutcome) -> bool:
        """Replay-verify one PROVED outcome's trace; False when N/A.

        Freezes the target independently (freezing is deterministic),
        replays the recorded trace with per-step verification, and
        checks the final instance derives the frozen conclusion —
        exactly what an untrusting client would do with the
        certificate. Raises :class:`ProofVerificationError` (or the
        replay's own ``VerificationError``) on a bad trace.
        """
        if not outcome.proved or outcome.chase_result is None:
            return False
        verify_started = time.perf_counter()
        start, frozen = outcome.target.freeze()
        final = replay(start, outcome.chase_result.steps, verify=True)
        satisfied = conclusion_satisfied(final, outcome.target, frozen)
        self._instruments.stage["verify"].observe(
            time.perf_counter() - verify_started
        )
        self._instruments.proof_verifications.inc()
        if not satisfied:
            raise ProofVerificationError(
                "replayed trace does not derive the conclusion of "
                f"{outcome.target!r}"
            )
        return True

    def run(
        self,
        budget: Optional[Budget] = None,
        *,
        derive_budgets: bool = False,
    ) -> BatchReport:
        """Answer every pending query; clears the queue.

        Every stage lands in :attr:`metrics`
        (``repro_stage_seconds{stage=...}`` and friends), and one
        :class:`~repro.obs.trace.RunTrace` per distinct trace ID is
        stored in :attr:`traces` — under the report's run-level
        :attr:`~BatchReport.trace_id` for untagged queries.

        ``derive_budgets`` marks this batch as having no caller-chosen
        budget: queries whose premise set the static analyzer certifies
        (:mod:`repro.analysis`) then chase to fixpoint under the
        analyzer-derived bound and answer decisively instead of
        UNKNOWN. Off by default so an explicit budget — starvation
        tests, checkpoint flows — behaves exactly as before.
        """
        budget = budget if budget is not None else Budget()
        instruments = self._instruments
        started = time.perf_counter()
        started_at = time.time()
        pending, self._pending = self._pending, []
        stats = BatchStats(submitted=len(pending))
        items: list[Optional[BatchItem]] = [None] * len(pending)
        run_trace_id = new_trace_id()
        spans: list[Span] = []
        #: Per-query trace rows, indexed by submission order.
        query_rows: list[dict] = [{} for _ in pending]

        def answer(
            query: _Pending,
            outcome: InferenceOutcome,
            source: str,
            chase_row: Optional[dict] = None,
        ) -> None:
            """Serve one query, and its trace row; ``source`` is
            ``cache``, ``dedup``, ``chase`` or ``resume``."""
            items[query.index] = BatchItem(
                index=query.index,
                target=query.target,
                fingerprint=query.fingerprint,
                outcome=outcome,
                from_cache=source == "cache",
                deduplicated=source == "dedup",
            )
            row = {
                "index": query.index,
                "fingerprint": query.fingerprint,
                "status": outcome.status.value,
                "source": source,
            }
            if chase_row is not None:
                row["chase"] = dict(chase_row)
            query_rows[query.index] = row

        instruments.batches.inc()
        instruments.queries.inc(len(pending))
        instruments.batch_size.observe(len(pending))
        if pending:
            # Canonicalization happened at submit time; surface its total
            # here so the trace timeline covers the whole pipeline.
            spans.append(
                Span(
                    "canonicalize",
                    sum(query.canon_seconds for query in pending),
                    {"queries": len(pending)},
                )
            )

        # Cache pass: serve what is already known, group the rest by
        # fingerprint so structurally identical queries chase once.
        watch = Stopwatch()
        lookup_stage = instruments.stage["cache_lookup"]
        groups: dict[str, list[_Pending]] = {}
        for query in pending:
            lookup_started = time.perf_counter()
            entry = self.cache.lookup(query.fingerprint, budget)
            lookup_stage.observe(time.perf_counter() - lookup_started)
            if entry is not None and derive_budgets:
                # A budget-free query over a certified set can chase to
                # a decisive verdict; a cached UNKNOWN (recorded under
                # some explicit budget) must not preempt that.
                if entry.outcome().status is InferenceStatus.UNKNOWN:
                    entry = None
            if entry is not None:
                stats.cache_hits += 1
                answer(query, entry.outcome(), "cache")
                continue
            groups.setdefault(query.fingerprint, []).append(query)
        instruments.cache_hits.inc(stats.cache_hits)
        if pending:
            spans.append(
                Span(
                    "cache_lookup",
                    watch.split(),
                    {"lookups": len(pending), "hits": stats.cache_hits},
                )
            )

        # Execute one representative per group, serially or on the pool.
        # A stale UNKNOWN whose entry carries a suspended chase resumes
        # it instead of re-chasing from row zero. A derive batch skips
        # that: certified sets chase straight to fixpoint, and
        # uncertified ones re-chase under the batch budget.
        tasks = []
        representatives: list[tuple[str, list[_Pending]]] = []
        for slot, (fingerprint, members) in enumerate(sorted(groups.items())):
            representative = members[0]
            tasks.append(
                QueryTask(
                    slot=slot,
                    dependencies=representative.dependencies,
                    target=representative.target,
                    derive=derive_budgets,
                    checkpoint=(
                        None
                        if derive_budgets
                        else self.cache.checkpoint_for(fingerprint)
                    ),
                )
            )
            representatives.append((fingerprint, members))
            instruments.dedup_group_size.observe(len(members))
        dedup_seconds = watch.split()
        instruments.stage["dedup"].observe(dedup_seconds)
        if groups:
            spans.append(
                Span(
                    "dedup",
                    dedup_seconds,
                    {
                        "groups": len(tasks),
                        "folded": len(pending) - stats.cache_hits - len(tasks),
                    },
                )
            )
        if not tasks:
            run = PoolRun()
        elif self.workers == 0:
            run = serial_run(tasks, budget, self.metrics)
        else:
            # The pool persists across run() calls: batch N+1 reuses the
            # worker processes batch N forked.
            run = self.pool().run(tasks, budget)
        outcomes = run.outcomes
        stats.resumed = len(run.resumed)
        stats.executed = len(tasks) - stats.resumed
        stats.chase_seconds = run.chase_seconds
        instruments.executed.inc(stats.executed)
        if tasks:
            spans.append(
                Span(
                    "dispatch",
                    watch.split(),
                    {
                        "executed": stats.executed,
                        "resumed": stats.resumed,
                        "chase_seconds": round(run.chase_seconds, 6),
                        "workers": self.workers,
                    },
                )
            )

        if self.verify_proofs and tasks:
            verified = sum(
                self._verify_proof(outcomes[slot]) for slot in range(len(tasks))
            )
            spans.append(
                Span("verify", watch.split(), {"proofs_verified": verified})
            )

        record_stage = instruments.stage["record"]
        record_seconds = 0.0
        for slot, (fingerprint, members) in enumerate(representatives):
            outcome = outcomes[slot]
            record_started = time.perf_counter()
            if outcome.status is InferenceStatus.FAILED:
                # An operational accident, not a verdict: caching it
                # would keep serving the accident after the fault is
                # gone. The client sees it once, structured, and retries.
                stats.failed += len(members)
            else:
                checkpoint_payload = run.checkpoints.get(slot)
                self.cache.record(
                    fingerprint, outcome, budget, checkpoint=checkpoint_payload
                )
                if checkpoint_payload is not None:
                    instruments.checkpoints_stored.inc()
            elapsed = time.perf_counter() - record_started
            record_seconds += elapsed
            record_stage.observe(elapsed)
            # Static-analysis provenance travels on the outcome (it
            # survives the worker wire and UNKNOWN slimming), so one
            # executed group lands in exactly one certified bucket.
            provenance = outcome.analysis
            if isinstance(provenance, dict):
                if provenance.get("certified"):
                    instruments.analysis_certified.inc()
                    derived_steps = provenance.get("derived_max_steps")
                    if derived_steps is not None:
                        instruments.analysis_derived_budget_steps.observe(
                            float(min(int(derived_steps), 10**300))
                        )
                else:
                    instruments.analysis_uncertified.inc()
                pruned = provenance.get("pruned")
                if pruned:
                    instruments.analysis_pruned.inc(int(pruned))
            # Snapshot the chase stats once per group: ``elapsed_seconds``
            # is live wall-clock for in-process runs, and every member of
            # the group must report the identical chase.
            chase_row = None
            if outcome.chase_result is not None:
                chase_stats = outcome.chase_result.stats
                chase_row = {
                    "steps": chase_stats.steps,
                    "rows_added": chase_stats.rows_added,
                    "seconds": round(chase_stats.elapsed_seconds, 6),
                }
            source = "resume" if slot in run.resumed else "chase"
            for position, query in enumerate(members):
                answer(query, outcome, "dedup" if position else source, chase_row)
            stats.deduplicated += len(members) - 1
        instruments.deduplicated.inc(stats.deduplicated)
        if representatives:
            spans.append(
                Span("record", record_seconds, {"recorded": len(representatives)})
            )

        stats.wall_seconds = time.perf_counter() - started
        answered: list[BatchItem] = []
        for item in items:
            if item is None:  # every slot is a cache hit or a group member
                raise RuntimeError("batch bookkeeping left a query unanswered")
            answered.append(item)

        if pending:
            # One stored trace per distinct trace ID: shared batch-level
            # spans, but only that ID's per-query rows.
            batch_summary = dataclasses.asdict(stats)
            by_trace: "OrderedDict[str, list[dict]]" = OrderedDict()
            for query in pending:
                trace_id = query.trace_id or run_trace_id
                by_trace.setdefault(trace_id, []).append(
                    query_rows[query.index]
                )
            for trace_id, rows in by_trace.items():
                self.traces.put(
                    RunTrace(
                        trace_id=trace_id,
                        started_at=started_at,
                        wall_seconds=stats.wall_seconds,
                        spans=list(spans),
                        queries=rows,
                        batch=batch_summary,
                    )
                )
        return BatchReport(
            items=answered,
            stats=stats,
            trace_id=run_trace_id if pending else "",
        )

    def run_batch(
        self,
        dependencies: Sequence[Dependency],
        targets: Sequence[Dependency],
        budget: Optional[Budget] = None,
    ) -> BatchReport:
        """Submit every ``dependencies ⊨ target`` pair and run the batch.

        The parallel, cached, deduplicating counterpart of
        :func:`repro.chase.implication.implies_all`: outcome statuses
        agree query-for-query.
        """
        shared = tuple(dependencies)
        premises = premise_key(shared)
        for target in targets:
            self._enqueue(shared, target, premises, None)
        return self.run(budget)


class ModelStore:
    """Registered :class:`~repro.chase.maintain.MaintainedModel`\\ s.

    The service-layer home of maintained universal models: clients
    register a dependency program plus base facts once, then stream
    inserts/deletes and ask conjunctive-query / implication questions
    against the *maintained* chase fixpoint instead of re-chasing per
    request (``POST /v1/models`` and friends on the HTTP server).

    * Capacity is bounded (``max_models``) with LRU eviction — any
      touch (facts, query, info) refreshes a model; registration past
      capacity evicts the least recently used one. Evicted IDs answer
      404, and clients re-register (the base facts are theirs).
    * Every operation holds one lock: maintained models are stateful
      (kernel view, trigger memos, derivation records), and the HTTP
      server runs model operations on executor threads, so two requests
      against one model must serialize. Coarse by design — maintenance
      runs are budget-bounded, and one store serves one process.
    * ``metrics`` wires the :class:`~repro.chase.maintain.MaintainInstruments`
      families (operation latency, row counters, the
      ``repro_models_active`` gauge) into the same registry the rest of
      the service reports to.
    """

    def __init__(
        self,
        *,
        max_models: int = 32,
        default_budget: Optional[Budget] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if max_models < 1:
            raise ValueError("max_models must be positive")
        self.max_models = max_models
        self.default_budget = (
            default_budget if default_budget is not None else Budget()
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.instruments = MaintainInstruments(self.metrics)
        self._models: "OrderedDict[str, MaintainedModel]" = OrderedDict()
        self._lock = threading.RLock()
        self._next_id = itertools.count(1)
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._models)

    def ids(self) -> list[str]:
        with self._lock:
            return list(self._models)

    def register(
        self,
        schema,
        dependencies: Sequence[Dependency],
        rows: Sequence = (),
        *,
        budget: Optional[Budget] = None,
    ) -> tuple[str, "MaintenanceReport"]:
        """Create a model, chase its base facts, return (id, report).

        The requested budget is clamped into the store's default — the
        same requests-can-only-narrow policy the verdict endpoints
        apply — and becomes the model's per-maintenance-run budget.
        """
        budget = (
            budget_meet(budget, self.default_budget)
            if budget is not None
            else self.default_budget
        )
        watch = Stopwatch()
        model = MaintainedModel(
            schema,
            dependencies,
            budget=budget,
            instruments=self.instruments,
        )
        report = model.insert(rows)
        report = dataclasses.replace(
            report, op="register", elapsed_seconds=watch.elapsed()
        )
        with self._lock:
            model_id = f"m-{next(self._next_id):06d}"
            self._models[model_id] = model
            while len(self._models) > self.max_models:
                __, evicted = self._models.popitem(last=False)
                self.instruments.rows_base.dec(len(evicted.base))
                self.evictions += 1
            self.instruments.active_models.set(len(self._models))
        self.instruments.maintain_seconds.labels(op="register").observe(
            report.elapsed_seconds
        )
        return model_id, report

    def get(self, model_id: str) -> "MaintainedModel":
        """The model under ``model_id`` (LRU-touched); KeyError if gone."""
        with self._lock:
            model = self._models[model_id]
            self._models.move_to_end(model_id)
            return model

    def drop(self, model_id: str) -> bool:
        """Forget a model; True when it existed."""
        with self._lock:
            model = self._models.pop(model_id, None)
            if model is not None:
                # The gauge tracks live base facts: release this model's.
                self.instruments.rows_base.dec(len(model.base))
            self.instruments.active_models.set(len(self._models))
            return model is not None

    def apply(
        self,
        model_id: str,
        *,
        insert: Sequence = (),
        delete: Sequence = (),
    ) -> list["MaintenanceReport"]:
        """Deletes then inserts, serialized under the store lock.

        Delete-before-insert gives one ``apply`` upsert semantics: a row
        in both lists ends up present.
        """
        with self._lock:
            model = self.get(model_id)
            reports = []
            if delete:
                reports.append(model.delete(delete))
            if insert:
                reports.append(model.insert(insert))
            return reports

    def answer(self, model_id: str, query) -> set:
        """Certain answers of ``query`` on the maintained model."""
        with self._lock:
            return self.get(model_id).answer(query)

    def implies(self, model_id: str, dependency: Dependency) -> bool:
        """Does ``dependency`` hold in the maintained model's core?"""
        with self._lock:
            return self.get(model_id).implies(dependency)

    def info(self, model_id: str) -> dict:
        """A JSON-shaped summary of one model (LRU-touched)."""
        with self._lock:
            model = self.get(model_id)
            return {
                "model_id": model_id,
                "schema": list(model.schema.attributes),
                "dependencies": len(model.dependencies),
                "base_rows": len(model.base),
                "rows": len(model.instance),
                "status": model.status.value,
                "saturated": model.saturated,
            }

    def list_models(self) -> list[dict]:
        """Summaries of every registered model, oldest-touched first."""
        with self._lock:
            return [
                {
                    "model_id": model_id,
                    "schema": list(model.schema.attributes),
                    "dependencies": len(model.dependencies),
                    "base_rows": len(model.base),
                    "rows": len(model.instance),
                    "status": model.status.value,
                    "saturated": model.saturated,
                }
                for model_id, model in self._models.items()
            ]

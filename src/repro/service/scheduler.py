"""Chase scheduling: serial execution and a persistent worker pool.

Independent ``D ⊨ d`` queries share nothing, so they parallelize
embarrassingly well. The pool ships each query to a worker as a JSON
payload (dependencies, target, budget) and gets the full outcome JSON
back — crossing the process boundary through
:mod:`repro.io.json_codec` instead of pickle keeps workers agnostic of
in-process object identity and exercises exactly the representation the
result cache stores.

**Persistent pool**: :class:`WorkerPool` owns long-lived worker
processes with a submit/drain scheduler, so callers that dispatch many
batches (the batch CLI looping over files, the HTTP server's shared
runs) pay the fork cost once, not per batch.

**One dispatch path**: :func:`serial_run` and the pool's workers both
chase through :func:`run_task`. A task carrying a stale UNKNOWN's
checkpoint resumes that suspended chase; every other task (or one
whose checkpoint no longer rebuilds) chases from scratch. Either way an
UNKNOWN comes back with a fresh checkpoint, so retries chain.

Every task runs under the budget its caller passed and records its
trace, so a PROVED, resumed or not, always carries a replayable proof.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro import faults
from repro.chase.budget import Budget
from repro.obs.metrics import MetricsRegistry
from repro.service.instruments import ServiceInstruments
from repro.chase.checkpoint import resume_implies
from repro.chase.implication import (
    InferenceOutcome,
    InferenceStatus,
    implies,
)
from repro.dependencies.classify import Dependency
from repro.errors import ReproError
from repro.kernel.backend import resolve_join_backend, set_join_backend
from repro.kernel.joins import memoized
from repro.io.json_codec import (
    Json,
    budget_from_json,
    budget_to_json,
    checkpoint_from_json,
    dependency_from_json,
    dependency_to_json,
    encode_checkpoint,
    outcome_from_json,
    outcome_to_json,
    slim_unknown_outcome,
)

@dataclass(frozen=True)
class QueryTask:
    """One deduplicated query: a slot number plus its ``(D, d)`` pair.

    ``derive`` marks a query whose caller supplied no budget of their
    own: when the static analyzer certifies the premise set, the chase
    runs under the analyzer-derived budget (``analysis="derive"``) and
    returns a decisive verdict instead of UNKNOWN. Queries with an
    explicit caller budget keep it exactly (``analysis="auto"`` only
    annotates them).

    ``checkpoint`` is the stale UNKNOWN's encoded suspended chase
    (:func:`repro.io.json_codec.checkpoint_to_json`), or None: the task
    resumes from it when it decodes and rebuilds.
    """

    slot: int
    dependencies: tuple[Dependency, ...]
    target: Dependency
    derive: bool = False
    checkpoint: Optional[Json] = None


#: One executed task: its outcome, the encoded checkpoint of an UNKNOWN
#: (None past ``REPRO_CHECKPOINT_MAX_ROWS`` or when decided) and, for a
#: resumed task, the ``(steps, rows_added)`` its checkpoint had behind
#: it (None for a from-scratch chase).
Dispatched = tuple[InferenceOutcome, Optional[Json], Optional[tuple[int, int]]]


@dataclass
class PoolRun:
    """What one scheduler dispatch produced.

    ``outcomes`` maps each task's slot to its verdict.
    """

    outcomes: dict[int, InferenceOutcome] = field(default_factory=dict)
    #: Wall seconds of the chase dispatches actually executed (summed
    #: per dispatch; parallelism can make this exceed the batch's own
    #: wall time). For pooled runs each dispatch is timed
    #: parent-side, submit to completion, so the wire round-trip is
    #: included — the time a query really spent being chased for.
    chase_seconds: float = 0.0
    #: Encoded checkpoints of the UNKNOWN slots. The facade stores these
    #: next to the UNKNOWN cache entries so retries resume instead of
    #: re-chasing.
    checkpoints: dict[int, Json] = field(default_factory=dict)
    #: Slots whose task resumed its checkpoint (the rest chased from
    #: scratch).
    resumed: set[int] = field(default_factory=set)
    #: Worker pools rebuilt in place during this run (crash containment).
    pool_restarts: int = 0
    #: Undecided payloads re-dispatched after a worker crash.
    redispatched: int = 0
    #: Payloads quarantined after repeatedly crashing workers; their
    #: slots hold FAILED outcomes.
    quarantined: int = 0

    def collect(
        self,
        slot: int,
        dispatched: Dispatched,
        seconds: float,
        instruments: ServiceInstruments,
    ) -> None:
        """Record one executed dispatch here and in the metric families.

        The chase kernel's own work counters (trigger firings, rows
        inserted) are surfaced from the outcome's :class:`ChaseResult`
        stats rather than re-measured — UNKNOWN outcomes that crossed
        the wire travel slim and simply contribute nothing here. A
        resumed chase's stats are cumulative, so the counters get only
        the work done past its checkpoint.
        """
        outcome, checkpoint, resumed_from = dispatched
        self.chase_seconds += seconds
        self.outcomes[slot] = outcome
        if checkpoint is not None:
            self.checkpoints[slot] = checkpoint
        if resumed_from is not None:
            self.resumed.add(slot)
            instruments.checkpoint_resumes.inc()
        instruments.stage["chase"].observe(seconds)
        instruments.chase_run_seconds.labels(
            verdict=outcome.status.value
        ).observe(seconds)
        if outcome.chase_result is not None:
            stats = outcome.chase_result.stats
            if stats is not None:
                prior_steps, prior_rows = resumed_from or (0, 0)
                instruments.chase_steps.inc(max(0, stats.steps - prior_steps))
                instruments.chase_rows.inc(
                    max(0, stats.rows_added - prior_rows)
                )


def run_task(task: QueryTask, budget: Budget) -> Dispatched:
    """Chase one task: resume its checkpoint, or chase from scratch.

    A checkpoint that does not decode or rebuild falls back to a
    from-scratch chase. The resumed run charges the checkpoint's spent
    work against ``budget``, so it reaches the verdict one uninterrupted
    run under that budget would.
    """
    if task.checkpoint is not None:
        try:
            suspended = checkpoint_from_json(task.checkpoint)
            outcome = resume_implies(suspended, budget=budget)
            resumed_from = (suspended.steps, suspended.rows_added)
            return outcome, encode_checkpoint(outcome), resumed_from
        except (ValueError, ReproError):
            pass
    outcome = implies(
        list(task.dependencies),
        task.target,
        budget=budget,
        checkpoint=True,
        analysis="derive" if task.derive else "auto",
    )
    return outcome, encode_checkpoint(outcome), None


def serial_run(
    tasks: Sequence[QueryTask],
    budget: Budget,
    metrics: MetricsRegistry,
) -> PoolRun:
    """Run every task in-process, one chase each.

    Each dispatch lands in ``metrics``' chase histograms exactly like a
    pooled one.
    """
    instruments = ServiceInstruments(metrics)
    run = PoolRun()
    for task in tasks:
        started = time.perf_counter()
        dispatched = run_task(task, budget)
        run.collect(
            task.slot, dispatched, time.perf_counter() - started, instruments
        )
    return run


#: What crosses the process boundary: (slot, premises, target, budget,
#: derive_budget, checkpoint JSON or None) outbound and
#: (slot, outcome JSON, checkpoint JSON or None, resumed-from counts or
#: None) back. Premises travel as a pre-serialized JSON *string*:
#: encoded once per distinct premise tuple, pickled cheaply per
#: payload, and usable as a worker-side memo key so each worker decodes
#: a batch's shared premise set once, not once per payload.
_WirePayload = tuple[int, str, Json, Json, bool, Optional[Json]]


def _encode_payloads(
    tasks: Sequence[QueryTask], budget: Budget
) -> list[_WirePayload]:
    """Encode every task's wire payload.

    Batches typically share one premise tuple across every task, so the
    premise JSON is encoded once per distinct tuple rather than once per
    payload (which would be O(premises x tasks) before any worker
    starts).
    """
    budget_payload = budget_to_json(budget)
    premise_payloads: dict[tuple[Dependency, ...], str] = {}
    payloads = []
    for task in tasks:
        premises = premise_payloads.get(task.dependencies)
        if premises is None:
            premises = json.dumps(
                [
                    dependency_to_json(dependency)
                    for dependency in task.dependencies
                ],
                separators=(",", ":"),
            )
            premise_payloads[task.dependencies] = premises
        payloads.append(
            (
                task.slot,
                premises,
                dependency_to_json(task.target),
                budget_payload,
                task.derive,
                task.checkpoint,
            )
        )
    return payloads


def _warm_worker() -> None:
    """No-op shipped to each worker so ``WorkerPool.start`` can force
    the lazily-spawning executor to actually create its processes."""


def _init_worker(fault_env: dict, join_backend: str) -> None:
    """Worker initializer: mirror the parent's fault-injection arming.

    Forkserver children inherit the environment the *forkserver* saw
    when it first launched — not the parent's current one — so fault
    points armed after the first pool in a process would silently never
    reach workers. Shipping the ``REPRO_FAULT_*`` slice explicitly at
    pool (re)start makes arming deterministic, including across the
    in-place rebuilds of crash containment.

    The join backend travels the same way, and as the parent's
    *resolved* answer rather than the raw environment: a pool can never
    run a different backend than the parent that scheduled the work
    (``REPRO_JOIN_BACKEND=auto`` resolving differently across processes
    would silently mix provenance within one batch).
    """
    for key in [k for k in os.environ if k.startswith(faults.PREFIX)]:
        del os.environ[key]
    os.environ.update(fault_env)
    set_join_backend(join_backend)


#: Worker-side memo of decoded premise tuples, keyed by their wire
#: string. One batch ships the same premise JSON in every payload; each
#: worker decodes it once, and the decoded Dependency objects then hit
#: the compiled kernel's structural plan cache instead of forcing a
#: recompile per payload. Bounded: a long-lived worker serving many
#: distinct premise sets must not grow without limit.
_PREMISE_MEMO: dict[str, list[Dependency]] = {}
_PREMISE_MEMO_MAX = 64


def _decode_premises(premises_wire: str) -> list[Dependency]:
    # memoized() evicts oldest-first, never wholesale: a worker cycling
    # through many premise sets must not periodically lose the hot ones.
    return memoized(
        _PREMISE_MEMO,
        premises_wire,
        lambda wire: [
            dependency_from_json(entry) for entry in json.loads(wire)
        ],
        _PREMISE_MEMO_MAX,
    )


def _execute_payload(
    payload: _WirePayload,
) -> tuple[int, Json, Optional[Json], Optional[tuple[int, int]]]:
    """Worker entry point: decode, chase, encode. Must stay module-level
    (and exception-free) so every start method can dispatch to it."""
    slot, premises_wire, target_payload, budget_payload, derive, checkpoint = payload
    if faults.fire("worker_kill", slot):
        # Chaos hook: die the way a segfault or the OOM killer would —
        # no exception, no cleanup, just a vanished process.
        os._exit(1)
    task = QueryTask(
        slot=slot,
        dependencies=tuple(_decode_premises(premises_wire)),
        target=dependency_from_json(target_payload),
        derive=derive,
        checkpoint=checkpoint,
    )
    outcome, next_checkpoint, resumed_from = run_task(
        task, budget_from_json(budget_payload)
    )
    # UNKNOWN payloads cross the process boundary slim: the exhausted
    # chase result can dwarf the chase itself on the wire. The
    # checkpoint rides beside the slim payload, not inside it.
    return (
        slot,
        slim_unknown_outcome(outcome_to_json(outcome)),
        next_checkpoint,
        resumed_from,
    )


class WorkerPool:
    """A persistent worker-process pool with a submit/drain scheduler.

    Worker processes are created lazily on first use (:meth:`start`
    forces it) and reused across :meth:`run` calls until :meth:`close`,
    so repeated batches — the HTTP server's shared runs, a CLI loop —
    amortize process startup instead of re-forking per batch. The
    backend is :class:`concurrent.futures.ProcessPoolExecutor` rather
    than ``multiprocessing.Pool`` because a killed worker (OOM,
    segfault) there surfaces as :class:`BrokenProcessPool` instead of a
    silently lost callback — a long-lived server must contain the crash,
    not wedge forever.

    **Crash containment**: a worker death breaks the whole executor and
    voids every in-flight future, but verdicts already collected are
    untouched — so :meth:`run` keeps them, rebuilds the pool in place
    (up to ``max_restarts`` times per batch) and re-dispatches only the
    still-undecided payloads. Each payload that was in flight during a
    crash collects one unit of blame; a payload blamed
    ``CRASH_LIMIT`` times is *quarantined* — its slot reports a
    structured FAILED outcome (never cached, never a verdict about
    ``D |= d``) instead of crashing the pool forever. When the restart
    budget itself runs out, every remaining undecided slot fails the
    same structured way; :meth:`run` raises only for non-crash errors.

    Submission is throttled to the worker count: a payload is handed to
    the pool only when a worker can take it, so a crash voids at most
    ``workers`` in-flight payloads.
    """

    #: In-flight crashes a single payload survives before quarantine.
    #: Two, not one: a payload sharing the pool with a genuine killer
    #: gets blamed once by collateral, and innocence means its re-run
    #: completes before a second crash can blame it again.
    CRASH_LIMIT = 2

    def __init__(
        self,
        workers: int,
        metrics: MetricsRegistry,
        *,
        max_restarts: int = 3,
    ):
        if workers < 1:
            raise ValueError("WorkerPool needs at least one worker")
        if max_restarts < 0:
            raise ValueError("max_restarts cannot be negative")
        self.workers = workers
        self.max_restarts = max_restarts
        self._pool: Optional[ProcessPoolExecutor] = None
        self._instruments = ServiceInstruments(metrics)

    def start(self) -> "WorkerPool":
        """Create the worker processes now (idempotent).

        ``ProcessPoolExecutor`` spawns workers lazily on first submit,
        which would silently defeat :meth:`InferenceService.warm_up`'s
        fork-before-threads contract — so this submits one no-op per
        worker and waits, forcing the processes into existence here.
        Where the platform offers it, workers come from a ``forkserver``
        context: children then fork from a dedicated single-threaded
        server process, which keeps even later re-forks (after a
        :class:`BrokenProcessPool` reset on a threaded server) safe.
        """
        if self._pool is None:
            context = (
                multiprocessing.get_context("forkserver")
                if "forkserver" in multiprocessing.get_all_start_methods()
                else None
            )
            fault_env = {
                key: value
                for key, value in os.environ.items()
                if key.startswith(faults.PREFIX)
            }
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=context,
                initializer=_init_worker,
                initargs=(fault_env, resolve_join_backend()),
            )
            wait([self._pool.submit(_warm_worker) for _ in range(self.workers)])
        return self

    def close(self) -> None:
        """Shut the worker processes down (idempotent; pool restartable)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(
        self,
        tasks: Sequence[QueryTask],
        budget: Budget,
    ) -> PoolRun:
        """Fan tasks out over the workers, one chase each.

        Results arrive unordered. A dead worker is *contained*:
        collected verdicts survive, the pool is rebuilt, undelivered
        payloads are re-dispatched, and repeat offenders come back as
        structured FAILED outcomes (see the class docstring) — only
        non-crash errors raise.
        """
        run = PoolRun()
        if not tasks:
            return run
        instruments = self._instruments
        pool = self.start()._pool
        assert pool is not None
        pending = deque(_encode_payloads(tasks, budget))
        failure: Optional[BaseException] = None
        # future -> (payload, submit time): the payload rides along so a
        # crash can re-dispatch exactly what was lost; payloads queue
        # from the run's start, so submit-minus-start is the queue wait.
        in_flight: dict[Future, tuple[_WirePayload, float]] = {}
        # slot -> times its payload was in flight during a crash. Blame
        # is collective (the killer is indistinguishable from its
        # pool-mates), which is why quarantine needs CRASH_LIMIT strikes
        # rather than one.
        crash_blame: dict[int, int] = {}
        lost: list[_WirePayload] = []
        started = time.perf_counter()

        def fail_slot(payload: _WirePayload, reason: str) -> None:
            """Quarantine one payload: its slot answers FAILED."""
            run.quarantined += 1
            instruments.fault_quarantined.inc()
            run.outcomes[payload[0]] = InferenceOutcome(
                status=InferenceStatus.FAILED,
                target=dependency_from_json(payload[2]),
                error=reason,
            )

        def contain_crash() -> bool:
            """Absorb a BrokenProcessPool: keep collected verdicts,
            rebuild the pool, requeue or quarantine the undelivered
            payloads. False when the restart budget is spent (the batch
            finishes with FAILED leftovers instead of an exception)."""
            nonlocal pool, failure
            failure = None
            suspects = lost + [payload for payload, __ in in_flight.values()]
            lost.clear()
            in_flight.clear()
            broken, self._pool = self._pool, None
            if broken is not None:
                broken.shutdown(wait=False)
            instruments.pool_restarts.inc()
            if run.pool_restarts >= self.max_restarts:
                for payload in suspects + list(pending):
                    fail_slot(
                        payload,
                        "worker pool crashed and its restart budget "
                        f"({self.max_restarts}) is exhausted",
                    )
                pending.clear()
                return False
            run.pool_restarts += 1
            instruments.fault_pool_restarts.inc()
            for payload in suspects:
                slot = payload[0]
                crash_blame[slot] = crash_blame.get(slot, 0) + 1
                if crash_blame[slot] >= self.CRASH_LIMIT:
                    fail_slot(
                        payload,
                        "query quarantined: it was in flight for "
                        f"{crash_blame[slot]} worker-pool crashes",
                    )
                    continue
                pending.appendleft(payload)
                run.redispatched += 1
                instruments.fault_redispatched.inc()
            pool = self.start()._pool
            assert pool is not None
            return True

        # In-flight is capped at exactly `workers`: a prefetch margin
        # would hide the sub-ms dispatch round-trip, but every
        # prefetched payload is one more a crash can void.
        def refill() -> None:
            nonlocal failure
            while pending and len(in_flight) < self.workers and failure is None:
                payload = pending.popleft()
                try:
                    future = pool.submit(_execute_payload, payload)
                except BaseException as error:  # broken/closing pool
                    lost.append(payload)
                    failure = error
                    return
                now = time.perf_counter()
                in_flight[future] = (payload, now)
                instruments.stage["queue_wait"].observe(now - started)

        refill()
        while in_flight or failure is not None:
            if failure is not None:
                if isinstance(failure, BrokenProcessPool):
                    if not contain_crash():
                        break
                    refill()
                    continue
                break  # non-crash errors still raise below
            done, __ = wait(in_flight, return_when=FIRST_COMPLETED)
            drained = time.perf_counter()
            arrivals = []
            for future in done:
                payload, submitted = in_flight.pop(future)
                try:
                    arrivals.append(future.result() + (drained - submitted,))
                except BaseException as error:
                    # The payload's result is gone; remember it so a
                    # crash can re-dispatch rather than drop it.
                    lost.append(payload)
                    failure = failure if failure is not None else error
            # Hand the freed workers their next payloads *before* the
            # (possibly heavy) outcome decodes, so workers never idle
            # behind them.
            if failure is None:
                refill()
            for slot, wire, checkpoint, resumed_from, seconds in arrivals:
                dispatched = (outcome_from_json(wire), checkpoint, resumed_from)
                run.collect(slot, dispatched, seconds, instruments)
        if failure is not None:
            # Only non-crash errors reach here (crashes are contained).
            raise failure
        return run

"""A long-lived asyncio HTTP front-end over :class:`InferenceService`.

The server makes budget-bounded verdicts — including first-class
UNKNOWNs — servable to many concurrent clients. Runs are batched by
group commit: a query that finds the server idle runs at once, and the
queries that arrive while a run is busy share the next
:meth:`InferenceService.run` call, so canonical deduplication and the
shared :class:`~repro.service.cache.ResultCache` (optionally disk
backed) work *across clients*, not just within one request's batch. Two
clients submitting alpha-renamed copies of the same query cost one
chase.

Endpoints (JSON over HTTP/1.1, wire format = :mod:`repro.io.json_codec`
payloads):

* ``POST /v1/implies`` — one query: ``{"dependencies": [...],
  "target": ..., "budget"?: ..., "certificates"?: bool}``; answers with
  the verdict, fingerprint, cache/dedup provenance and the full outcome
  payload (certificates included unless ``"certificates": false``).
* ``POST /v1/batch`` — many targets against one premise set; answers
  with per-item verdicts plus this request's slice of the batch stats.
* ``GET /v1/stats`` — lifetime server, cache and batching counters,
  plus the full metrics-registry snapshot (JSON form).
* ``GET /metrics`` — the same registry in Prometheus text exposition
  format (the one non-JSON endpoint; scrape it).
* ``GET /v1/trace/<id>`` — one request's stage-level run trace, while
  it is still in the service's bounded trace buffer. Every verdict
  response carries its ``trace_id`` (client-suppliable via the request
  payload); ``POST /v1/implies?debug=1`` / ``/v1/batch?debug=1``
  attach the trace to the response inline.
* ``POST /v1/models`` — register a maintained universal model (schema +
  dependency program + base facts; chased once, then kept up to date).
  ``POST /v1/models/<id>/facts`` streams inserts/deletes into it (an
  incremental re-chase, not a from-scratch one) and
  ``POST /v1/models/<id>/query`` answers conjunctive queries (certain
  answers) and implication checks against the maintained fixpoint.
  ``GET``/``DELETE`` on ``/v1/models[/<id>]`` list, inspect and drop.
* ``GET /healthz`` — liveness. ``GET /readyz`` — readiness: 503 while
  the serving loop is starting or draining (see ``max_queue`` /
  ``drain_timeout`` on :class:`InferenceServer` for the overload and
  shutdown story; a full admission queue sheds requests with 429 and a
  ``Retry-After`` header rather than flipping readiness).

The event loop only parses HTTP and queues queries; chases run on an
executor thread (one batch at a time, so the cache and the service's
pending queue are touched by a single thread), and with ``workers > 0``
fan out further over the service's persistent
:class:`~repro.service.scheduler.WorkerPool`. Because runs execute one
at a time, duplicate concurrent misses never race each other: a
duplicate either shares its original's run (deduplicated) or
arrives after the verdict was recorded (cache hit) — never a second
chase of the same fingerprint.

``python -m repro serve`` is the CLI wrapper; tests and benchmarks use
:class:`ServerThread` to host a server on a background thread of the
same process.
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import json
import threading
import time
import urllib.parse
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import dataclasses

from repro import faults
from repro.chase.budget import Budget
from repro.chase.implication import InferenceStatus
from repro.dependencies.classify import Dependency
from repro.errors import ReproError
from repro.kernel.backend import join_backend_info
from repro.io.json_codec import (
    CodecError,
    Json,
    budget_from_json,
    budget_to_json,
    cq_from_json,
    dependency_from_json,
    outcome_to_json,
    rows_from_json,
    rows_to_json,
    schema_from_json,
)
from repro.obs.trace import new_trace_id
from repro.service.api import BatchItem, InferenceService, ModelStore
from repro.service.cache import budget_meet

#: Largest accepted request body; bigger requests get 413 instead of
#: buffering unboundedly in the event loop.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Bodies up to this size are JSON-decoded inline on the event loop;
#: larger ones decode on the executor so they cannot stall other
#: connections.
INLINE_DECODE_BYTES = 64 * 1024



@dataclass
class ServerStats:
    """Lifetime counters for one server process."""

    requests: int = 0
    http_errors: int = 0
    queries: int = 0
    #: Requests refused with 429 because the admission queue was full
    #: (or the ``shed`` fault point forced the same path).
    shed: int = 0
    batches: int = 0
    cache_hits: int = 0
    deduplicated: int = 0
    executed: int = 0
    #: Wall seconds of whole InferenceService runs (hashing, cache
    #: traffic and scheduling included).
    batch_seconds: float = 0.0
    #: Wall seconds actually spent inside chase dispatches.
    chase_seconds: float = 0.0


@dataclass
class _QueuedQuery:
    """One client query waiting for the batching loop.

    ``budget`` is always resolved (request budget clamped into the
    server ceiling, or the ceiling itself) before queueing. ``derive``
    remembers whether the *client* sent a budget at all: budget-free
    queries over premise sets the static analyzer certifies are chased
    to fixpoint under the analyzer-derived bound (decisive verdict,
    no UNKNOWN), while explicit client budgets are honored exactly.
    """

    dependencies: tuple[Dependency, ...]
    target: Dependency
    budget: Budget
    future: "asyncio.Future[BatchItem]" = field(repr=False)
    trace_id: Optional[str] = None
    derive: bool = False


@dataclass
class _TextResponse:
    """A non-JSON response body (``GET /metrics``)."""

    body: str
    content_type: str = "text/plain; version=0.0.4; charset=utf-8"


def _item_payload(item: BatchItem, include_certificates: bool) -> Json:
    """Encode one answered query for the wire.

    With certificates declined, the chase trace and counterexample are
    dropped *before* encoding — a proof trace can dwarf the verdict.
    An UNKNOWN's budget-exhausted chase result is never shipped: it is
    not a certificate (``json_codec.slim_unknown_outcome`` is the same
    policy at the payload level, applied by the cache and the pool
    wire), and serial in-process outcomes would otherwise leak it where
    pooled ones do not. Dropped here pre-encode so the trace is never
    serialized at all.
    """
    outcome = item.outcome
    if not include_certificates or outcome.status is InferenceStatus.UNKNOWN:
        outcome = dataclasses.replace(
            outcome,
            chase_result=None,
            counterexample=(
                outcome.counterexample if include_certificates else None
            ),
        )
    outcome_payload = outcome_to_json(outcome)
    payload = {
        "status": item.outcome.status.value,
        "fingerprint": item.fingerprint,
        "from_cache": item.from_cache,
        "deduplicated": item.deduplicated,
        "outcome": outcome_payload,
    }
    # Analysis provenance is small and verdict-relevant (it explains a
    # decisive answer on a budget-free query), so it is surfaced at the
    # top level too, certificates or not.
    if item.outcome.analysis is not None:
        payload["analysis"] = item.outcome.analysis
    return payload


class _BadRequest(Exception):
    """Client-side error carried to the HTTP layer as a 400."""


class _Rejected(Exception):
    """Admission refused — a 429 (queue full) or 503 (draining).

    Carries a ``Retry-After`` hint so well-behaved clients back off
    instead of hammering an already overloaded server.
    """

    def __init__(self, status: int, message: str, retry_after: int):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


class _DropConnection(Exception):
    """Injected connection drop (the ``drop_conn`` fault point): the
    handler closes the socket without writing any response."""


class InferenceServer:
    """The asyncio HTTP server; one instance owns one listening socket.

    Runs are batched by group commit, with no timer: a query that
    finds the server idle runs at once, and everything queued while a
    run is busy shares the next one — cross-client dedup *within* a run
    and pool-wide fan-out of its misses. Runs are serialized, so a
    concurrent duplicate of an in-flight miss is answered by the cache,
    never chased twice.

    * ``max_batch`` — cap on queries in one ``run``. A request of up to
      ``max_batch`` targets is never split across runs; 1 gives every
      request its own run (benchmark E12's control).
    * ``default_budget`` — used for requests that carry no ``budget``,
      and the *ceiling* for requests that do: a client budget is
      clamped axis-wise into it (requests can only narrow the work, so
      no request — e.g. an empty ``"budget": {}``, which decodes to
      unlimited — can wedge the serialized run pipeline).
    * ``read_timeout`` — seconds an idle or trickling connection may
      take to deliver its request before being answered 400 and closed.
    * ``max_models`` — capacity of the maintained-model store backing
      the ``/v1/models`` endpoints (LRU-evicted past that).
    * ``max_queue`` — cap on queries admitted but not yet answered. A
      request whose targets would push the backlog past the cap is shed
      with ``429 Too Many Requests`` and a ``Retry-After`` header —
      bounded latency for admitted work beats unbounded queueing for
      everyone (``GET /readyz`` goes 503 only while starting or
      draining; shedding is per-request, not a readiness state).
    * ``drain_timeout`` — seconds :meth:`stop` waits for queued and
      in-flight queries to finish before tearing the loop down. During
      the drain the socket stays open so ``/readyz`` can answer 503
      and load balancers rotate the instance out gracefully.
    """

    #: ``Retry-After`` hint (seconds) on 429/503 admission refusals.
    RETRY_AFTER_SECONDS = 1

    def __init__(
        self,
        service: Optional[InferenceService] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 8765,
        max_batch: int = 64,
        default_budget: Optional[Budget] = None,
        read_timeout: float = 30.0,
        max_models: int = 32,
        max_queue: int = 256,
        drain_timeout: float = 5.0,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        if read_timeout <= 0:
            raise ValueError("read_timeout must be positive")
        if max_queue < 1:
            raise ValueError("max_queue must be positive")
        if drain_timeout < 0:
            raise ValueError("drain_timeout must be >= 0")
        self.service = service if service is not None else InferenceService()
        self.host = host
        self.port = port  # rewritten to the bound port by start()
        self.max_batch = max_batch
        self.default_budget = (
            default_budget if default_budget is not None else Budget()
        )
        self.read_timeout = read_timeout
        self.max_queue = max_queue
        self.drain_timeout = drain_timeout
        # Maintained universal models (POST /v1/models and friends):
        # registered once, incrementally re-chased per facts request,
        # queried at interactive latency. Shares the service's metrics
        # registry so the maintain-stage instruments land on /metrics.
        self.models = ModelStore(
            max_models=max_models,
            default_budget=self.default_budget,
            metrics=self.service.metrics,
        )
        self.stats = ServerStats()
        self.started_at = time.monotonic()
        # HTTP-layer families on the service's registry, so one
        # ``GET /metrics`` scrape covers the whole stack. Route labels
        # are bounded by _route_label (client paths never become label
        # values).
        registry = self.service.metrics
        self._http_requests = registry.counter(
            "repro_http_requests_total",
            "HTTP requests received, by (bounded) route",
            labels=("route",),
        )
        self._http_errors_metric = registry.counter(
            "repro_http_errors_total",
            "HTTP responses with a status of 400 or above",
        )
        # Same family ServiceInstruments registers (registration is
        # idempotent for an identical signature): the service owns the
        # name, the server is the call site that sheds.
        self._shed_metric = registry.counter(
            "repro_fault_shed_total",
            "Requests shed with 429 because the admission queue was full",
        )
        registry.gauge(
            "repro_uptime_seconds",
            "Seconds since the server started",
            fn=lambda: time.monotonic() - self.started_at,
        )
        # Admitted requests no run has taken yet, as chunks of at most
        # max_batch queries.
        self._pending: deque[list[_QueuedQuery]] = deque()
        self._arrival: Optional[asyncio.Event] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._batcher: Optional["asyncio.Task"] = None
        self._stopping = False
        # True while a run holds queries taken off _pending.
        self._busy = False
        # Connection handlers currently alive. stop()'s drain waits on
        # this too: a verdict computed but not yet written back is as
        # much in-flight work as the batch that computed it (and 3.11's
        # wait_closed() does not wait for handlers).
        self._connections = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "InferenceServer":
        """Bind the socket and start the batching loop."""
        self.service.warm_up()  # fork workers before any executor thread
        self._stopping = False
        self._arrival = asyncio.Event()
        self._batcher = asyncio.get_running_loop().create_task(
            self._batch_loop()
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_at = time.monotonic()
        return self

    async def serve_forever(self) -> None:
        """Serve until cancelled (the CLI's main loop)."""
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Drain in-flight queries, then tear the serving loop down.

        Two phases. First ``_stopping`` flips: new submissions are
        refused with 503 (``Retry-After`` set) and ``/readyz`` reports
        draining, but the socket stays open and the batching loop keeps
        answering queries already admitted — up to ``drain_timeout``
        seconds. Then the socket closes, the loop is cancelled and
        whatever the drain did not finish is resolved by cancelling its
        waiters (never left hanging).
        """
        # Handlers still alive (e.g. decoding a large body on the
        # executor) must not enqueue into a loop with no consumer and
        # hang forever; _submit checks this flag.
        self._stopping = True
        if self._batcher is not None:
            loop = asyncio.get_running_loop()
            deadline = loop.time() + self.drain_timeout
            while loop.time() < deadline and (
                self._busy or self._connections > 0 or self._pending
            ):
                await asyncio.sleep(0.005)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._batcher is not None:
            self._batcher.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._batcher
            self._batcher = None
        while self._pending:
            for query in self._pending.popleft():
                if not query.future.done():
                    query.future.cancel()

    # ------------------------------------------------------------------
    # Group commit
    # ------------------------------------------------------------------

    @property
    def _queued(self) -> int:
        """Queries admitted that no run has taken yet."""
        return sum(len(chunk) for chunk in self._pending)

    async def _batch_loop(self) -> None:
        """Group commit: each run takes what queued while the last ran.

        Whole queued chunks join a run while they fit in ``max_batch``
        queries, so a request that fits in one run is never split.
        """
        assert self._arrival is not None
        while True:
            await self._arrival.wait()
            self._arrival.clear()
            while self._pending:
                batch = self._pending.popleft()
                while self._pending and (
                    len(batch) + len(self._pending[0]) <= self.max_batch
                ):
                    batch += self._pending.popleft()
                self._busy = True
                try:
                    await self._execute_batch(batch)
                except asyncio.CancelledError:
                    # Shutdown mid-run: the taken queries are in this
                    # local batch, not _pending — resolve their waiters
                    # so no connection handler hangs.
                    for query in batch:
                        if not query.future.done():
                            query.future.cancel()
                    raise
                finally:
                    self._busy = False

    async def _execute_batch(self, batch: list[_QueuedQuery]) -> None:
        """Run one group-commit batch, grouped by budget, on the executor."""
        loop = asyncio.get_running_loop()
        # Budget is a frozen dataclass: hashable, and the derive flag is
        # a second grouping axis — budget-free queries (eligible for
        # analyzer-derived budgets) must not share a run with queries
        # that pinned this same budget explicitly. _submit resolved
        # (clamped) every query's budget already, so the group key is
        # always concrete.
        groups: dict[tuple[Budget, bool], list[_QueuedQuery]] = {}
        for query in batch:
            groups.setdefault((query.budget, query.derive), []).append(query)
        for (budget, derive), members in groups.items():
            live = [member for member in members if not member.future.done()]
            if not live:
                continue
            try:
                report = await loop.run_in_executor(
                    None, self._run_group, live, budget, derive
                )
            except Exception as error:  # pragma: no cover - defensive
                for member in live:
                    if not member.future.done():
                        member.future.set_exception(error)
                continue
            if len(report.items) != len(live):  # pragma: no cover - defensive
                # Misaligned bookkeeping must fail loudly: pairing the
                # futures positionally would hand clients each other's
                # verdicts.
                mismatch = RuntimeError(
                    f"batch returned {len(report.items)} items for "
                    f"{len(live)} queries"
                )
                for member in live:
                    if not member.future.done():
                        member.future.set_exception(mismatch)
                continue
            self.stats.batches += 1
            self.stats.cache_hits += report.stats.cache_hits
            self.stats.deduplicated += report.stats.deduplicated
            self.stats.executed += report.stats.executed
            self.stats.batch_seconds += report.stats.wall_seconds
            self.stats.chase_seconds += report.stats.chase_seconds
            for member, item in zip(live, report.items):
                if not member.future.done():
                    member.future.set_result(item)

    def _run_group(
        self,
        members: Sequence[_QueuedQuery],
        budget: Budget,
        derive: bool = False,
    ):
        """Executor-thread body: submit the group and run it.

        The batching loop awaits each group, so only one executor thread
        ever touches the service at a time. Submission is transactional:
        a failure partway discards the queries already queued, so a
        later group's answers can never misalign with its own futures.
        """
        try:
            for member in members:
                self.service.submit(
                    member.dependencies, member.target, trace_id=member.trace_id
                )
        except Exception:
            self.service.discard_pending()
            raise
        return self.service.run(budget, derive_budgets=derive)

    async def _submit(
        self,
        dependencies: tuple[Dependency, ...],
        targets: Sequence[Dependency],
        budget: Optional[Budget],
        trace_id: Optional[str] = None,
    ) -> list[BatchItem]:
        """Queue queries for the batching loop and await their items.

        The single choke point for budgets: whatever the request asked
        for is clamped into the server's ceiling before it is queued.
        Also the single choke point for *admission*: a draining server
        refuses with 503, a backlogged one sheds with 429 — atomically
        for all of a request's targets (no event-loop yield between the
        capacity check and the queueing), so a batch is admitted whole
        or not at all.
        """
        assert self._arrival is not None
        if self._stopping:
            raise _Rejected(
                503, "server is draining", self.RETRY_AFTER_SECONDS
            )
        if self._queued + len(targets) > self.max_queue:
            self.stats.shed += 1
            self._shed_metric.inc()
            raise _Rejected(
                429,
                f"admission queue is full "
                f"({self._queued}/{self.max_queue} queued)",
                self.RETRY_AFTER_SECONDS,
            )
        derive = budget is None
        budget = self._effective_budget(budget)
        loop = asyncio.get_running_loop()
        queries = [
            _QueuedQuery(
                dependencies, target, budget, loop.create_future(), trace_id, derive
            )
            for target in targets
        ]
        for start in range(0, len(queries), self.max_batch):
            self._pending.append(queries[start : start + self.max_batch])
        self._arrival.set()
        self.stats.queries += len(queries)
        return list(await asyncio.gather(*(query.future for query in queries)))

    # ------------------------------------------------------------------
    # HTTP layer
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections += 1
        try:
            await self._handle_connection_inner(reader, writer)
        finally:
            self._connections -= 1

    async def _handle_connection_inner(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        headers: dict[str, str] = {}
        try:
            response = await self._respond(reader)
            if len(response) == 3:
                status, payload, headers = response
            else:
                status, payload = response
        except asyncio.CancelledError:
            writer.close()
            raise
        except _DropConnection:
            # Injected fault: hang up without a response so clients'
            # connection-error handling gets exercised for real.
            writer.close()
            with contextlib.suppress(ConnectionError):
                await writer.wait_closed()
            return
        except (asyncio.IncompleteReadError, ConnectionError):
            status, payload = 400, {"error": "malformed HTTP request"}
        except asyncio.TimeoutError:
            status, payload = 400, {"error": "request read timed out"}
        except Exception as error:  # pragma: no cover - defensive
            status, payload = 500, {"error": f"internal error: {error}"}
        if status >= 400:
            self.stats.http_errors += 1
            self._http_errors_metric.inc()
        if isinstance(payload, _TextResponse):
            content_type = payload.content_type
            body = payload.body.encode("utf-8")
        elif isinstance(payload, dict) and (
            "outcome" in payload or "items" in payload
        ):
            # Verdict bodies can carry multi-megabyte certificates:
            # serialize those off the loop. Small payloads (healthz,
            # stats, errors) dump inline — the executor hop would cost
            # more than the dumps call.
            content_type = "application/json"
            body = await asyncio.get_running_loop().run_in_executor(
                None,
                lambda: json.dumps(payload, separators=(",", ":")).encode(
                    "utf-8"
                ),
            )
        else:
            content_type = "application/json"
            body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in headers.items()
        )
        head = (
            f"HTTP/1.1 {status} {http.client.responses.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            f"Connection: close\r\n"
            f"\r\n"
        ).encode("ascii")
        try:
            writer.write(head + body)
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError):
                await writer.wait_closed()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Union[tuple[str, str, bytes], tuple[int, Json]]:
        """Parse one request; (method, path, body) or an error response.

        Everything here is protocol parsing, so a ValueError (including
        the one readline raises for an over-limit request/header line)
        is the client's fault — answered 400, never 500.
        """
        try:
            return await self._parse_request(reader)
        except (ValueError, asyncio.LimitOverrunError):
            return 400, {"error": "malformed HTTP request"}

    async def _parse_request(
        self, reader: asyncio.StreamReader
    ) -> Union[tuple[str, str, bytes], tuple[int, Json]]:
        request_line = await reader.readline()
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return 400, {"error": "malformed request line"}
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            header = name.strip().lower()
            if header == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return 400, {"error": f"bad content-length {value.strip()!r}"}
            elif header == "transfer-encoding":
                # Without this check a chunked body would silently parse
                # as empty and earn a misleading JSON error.
                return 400, {
                    "error": "Transfer-Encoding is not supported; "
                    "send Content-Length"
                }
        if content_length < 0:
            return 400, {"error": f"bad content-length {content_length}"}
        if content_length > MAX_BODY_BYTES:
            # Drain the declared body before answering: closing with
            # unread bytes in flight usually RSTs the connection and the
            # client never sees the 413. The outer read deadline bounds
            # how long a huge drain may take.
            remaining = content_length
            while remaining > 0:
                chunk = await reader.read(min(remaining, 1 << 20))
                if not chunk:
                    break
                remaining -= len(chunk)
            return 413, {"error": f"body exceeds {MAX_BODY_BYTES} bytes"}
        body = (
            await reader.readexactly(content_length) if content_length else b""
        )
        return method, path, body

    async def _respond(self, reader: asyncio.StreamReader) -> tuple:
        """(status, payload) or (status, payload, extra-headers)."""
        # Counted before any parsing, so error responses can never
        # outnumber requests in /v1/stats.
        self.stats.requests += 1
        # Only the *read* is deadlined — an idle or trickling connection
        # must not hold a handler task and socket forever. Routing (which
        # legitimately waits on chases) stays unbounded.
        request = await asyncio.wait_for(
            self._read_request(reader), self.read_timeout
        )
        if isinstance(request[0], int):
            return request  # an error response from the parser
        method, path, body = request
        try:
            return await self._route(method, path, body)
        except _BadRequest as error:
            return 400, {"error": str(error)}
        except _Rejected as error:
            return (
                error.status,
                {"error": str(error), "retry_after": error.retry_after},
                {"Retry-After": str(error.retry_after)},
            )
        except (CodecError, json.JSONDecodeError) as error:
            return 400, {"error": f"bad payload: {error}"}

    @staticmethod
    def _route_label(path: str) -> str:
        """A bounded route label for the requests counter.

        Client-chosen strings (trace IDs, arbitrary paths) must never
        become label values — unbounded label cardinality is a metrics
        memory leak.
        """
        if path.startswith("/v1/trace/"):
            return "/v1/trace"
        if path.startswith("/v1/models/"):
            # Model IDs are client-visible strings: collapse them, but
            # keep the action suffix (facts/query) distinguishable.
            if path.endswith("/facts"):
                return "/v1/models/facts"
            if path.endswith("/query"):
                return "/v1/models/query"
            return "/v1/models/id"
        if path in (
            "/healthz",
            "/readyz",
            "/v1/stats",
            "/v1/implies",
            "/v1/batch",
            "/v1/models",
            "/metrics",
        ):
            return path
        return "other"

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, Union[Json, _TextResponse]]:
        path, _, query_string = path.partition("?")
        params = urllib.parse.parse_qs(query_string)
        debug = params.get("debug", ["0"])[-1] not in ("", "0", "false")
        self._http_requests.labels(route=self._route_label(path)).inc()
        if faults.fire("drop_conn", path):
            raise _DropConnection()
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "use GET"}
            return 200, {
                "status": "ok",
                "uptime_seconds": time.monotonic() - self.started_at,
            }
        if path == "/readyz":
            if method != "GET":
                return 405, {"error": "use GET"}
            return self._readyz()
        if path == "/v1/stats":
            if method != "GET":
                return 405, {"error": "use GET"}
            return 200, self._stats_payload()
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "use GET"}
            return 200, _TextResponse(self.service.metrics.render_prometheus())
        if path.startswith("/v1/trace/"):
            if method != "GET":
                return 405, {"error": "use GET"}
            trace_id = path[len("/v1/trace/") :]
            trace = self.service.traces.get(trace_id)
            if trace is None:
                return 404, {
                    "error": f"no trace {trace_id!r} (expired or never ran?)"
                }
            return 200, trace.to_json()
        if path in ("/v1/implies", "/v1/batch") and faults.fire("shed", path):
            # Injected overload: take exactly the real shed path so the
            # chaos suite exercises the 429 contract without needing to
            # actually wedge the queue.
            self.stats.shed += 1
            self._shed_metric.inc()
            raise _Rejected(
                429,
                "admission queue is full (injected)",
                self.RETRY_AFTER_SECONDS,
            )
        if path == "/v1/implies":
            if method != "POST":
                return 405, {"error": "use POST"}
            return await self._implies(body, debug=debug)
        if path == "/v1/batch":
            if method != "POST":
                return 405, {"error": "use POST"}
            return await self._batch(body, debug=debug)
        if path == "/v1/models":
            if method == "GET":
                return 200, {
                    "models": self.models.list_models(),
                    "max_models": self.models.max_models,
                    "evictions": self.models.evictions,
                }
            if method == "POST":
                return await self._models_register(body)
            return 405, {"error": "use GET or POST"}
        if path.startswith("/v1/models/"):
            model_id, _, action = path[len("/v1/models/") :].partition("/")
            if not model_id:
                return 404, {"error": "missing model id"}
            return await self._models_dispatch(method, model_id, action, body)
        return 404, {"error": f"no route for {method} {path}"}

    def _readyz(self) -> tuple:
        """``GET /readyz``: can this instance usefully take traffic now?

        Distinct from ``/healthz`` (liveness: the process is up and the
        event loop turns): readiness goes 503 while the serving loop is
        not yet running and — crucially — during :meth:`stop`'s drain,
        so rotation out of a load-balancer pool happens before the
        socket disappears. Backpressure is *not* a readiness state:
        a full queue sheds individual requests with 429 instead of
        flipping the whole instance unready.
        """
        if self._stopping:
            return (
                503,
                {"status": "draining"},
                {"Retry-After": str(self.RETRY_AFTER_SECONDS)},
            )
        if self._batcher is None:
            return (
                503,
                {"status": "starting"},
                {"Retry-After": str(self.RETRY_AFTER_SECONDS)},
            )
        return 200, {
            "status": "ready",
            "queued": self._queued,
            "max_queue": self.max_queue,
        }

    def _stats_payload(self) -> Json:
        cache = self.service.cache
        return {
            "uptime_seconds": time.monotonic() - self.started_at,
            # asdict: a counter added to ServerStats shows up here (and
            # in monitoring) automatically.
            "server": dataclasses.asdict(self.stats),
            "cache": {
                "size": len(cache),
                "maxsize": cache.maxsize,
                "hits": cache.stats.hits,
                "misses": cache.stats.misses,
                "stale_unknown": cache.stats.stale,
                "evictions": cache.stats.evictions,
                "load_evictions": cache.stats.load_evictions,
            },
            "batching": {
                "max_batch": self.max_batch,
                "workers": self.service.workers,
                "default_budget": budget_to_json(self.default_budget),
                "queued": self._queued,
                "max_queue": self.max_queue,
            },
            "models": {
                "active": len(self.models),
                "max_models": self.models.max_models,
                "evictions": self.models.evictions,
            },
            # Which join backend this process (and, by construction, its
            # worker pools) resolved — see repro.kernel.backend.
            "engines": join_backend_info(),
            # The full registry snapshot, JSON-shaped: everything
            # ``GET /metrics`` exposes, for clients that already speak
            # this wire format (``repro stats`` renders it).
            "metrics": self.service.metrics.snapshot().to_json(),
        }

    def _effective_budget(self, requested: Optional[Budget]) -> Budget:
        """The request's budget clamped into the server's ceiling."""
        if requested is None:
            return self.default_budget
        return budget_meet(requested, self.default_budget)

    @staticmethod
    def _decode_common(
        body: bytes,
    ) -> tuple[dict, tuple[Dependency, ...], Optional[Budget], bool, str]:
        try:
            payload = json.loads(body.decode("utf-8"))
        except UnicodeDecodeError as error:
            raise _BadRequest(f"body is not UTF-8: {error}") from error
        if not isinstance(payload, dict):
            raise _BadRequest("request body must be a JSON object")
        raw_dependencies = payload.get("dependencies", [])
        if not isinstance(raw_dependencies, list):
            raise _BadRequest("'dependencies' must be a list")
        dependencies = tuple(
            dependency_from_json(entry) for entry in raw_dependencies
        )
        budget = (
            budget_from_json(payload["budget"]) if "budget" in payload else None
        )
        include_certificates = bool(payload.get("certificates", True))
        trace_id = payload.get("trace_id")
        if trace_id is None:
            trace_id = new_trace_id()
        elif (
            not isinstance(trace_id, str)
            or not trace_id
            or len(trace_id) > 64
        ):
            raise _BadRequest(
                "'trace_id' must be a non-empty string of at most 64 chars"
            )
        return payload, dependencies, budget, include_certificates, trace_id

    async def _decode_request(self, body: bytes, parser):
        """Run a body parser inline, or on the executor for big bodies.

        Mirrors the encode side: a 64 MB ``/v1/batch`` parse must not
        stall every other connection behind its ``json.loads``.
        """
        if len(body) <= INLINE_DECODE_BYTES:
            return parser(body)
        return await asyncio.get_running_loop().run_in_executor(
            None, parser, body
        )

    def _parse_implies(self, body: bytes):
        payload, dependencies, budget, certificates, trace_id = (
            self._decode_common(body)
        )
        if "target" not in payload:
            raise _BadRequest("'target' is required")
        return (
            dependencies,
            dependency_from_json(payload["target"]),
            budget,
            certificates,
            trace_id,
        )

    def _parse_batch(self, body: bytes):
        payload, dependencies, budget, certificates, trace_id = (
            self._decode_common(body)
        )
        raw_targets = payload.get("targets")
        if not isinstance(raw_targets, list) or not raw_targets:
            raise _BadRequest("'targets' must be a non-empty list")
        targets = [dependency_from_json(entry) for entry in raw_targets]
        return dependencies, targets, budget, certificates, trace_id

    def _trace_payload(self, trace_id: str) -> Optional[Json]:
        """The stored trace for ``trace_id``, JSON-shaped (None if gone).

        A request larger than ``max_batch`` can span several service
        runs; the buffer keeps the newest run's view under this ID.
        """
        trace = self.service.traces.get(trace_id)
        return trace.to_json() if trace is not None else None

    async def _implies(
        self, body: bytes, *, debug: bool = False
    ) -> tuple[int, Json]:
        dependencies, target, budget, certificates, trace_id = (
            await self._decode_request(body, self._parse_implies)
        )
        items = await self._submit(dependencies, [target], budget, trace_id)
        # Certificate payloads can dwarf the verdict: encode off the
        # event loop so other connections keep being served meanwhile.
        payload = await asyncio.get_running_loop().run_in_executor(
            None, _item_payload, items[0], certificates
        )
        payload["trace_id"] = trace_id
        if debug:
            payload["trace"] = self._trace_payload(trace_id)
        return 200, payload

    async def _batch(
        self, body: bytes, *, debug: bool = False
    ) -> tuple[int, Json]:
        dependencies, targets, budget, certificates, trace_id = (
            await self._decode_request(body, self._parse_batch)
        )
        items = await self._submit(dependencies, targets, budget, trace_id)
        encoded = await asyncio.get_running_loop().run_in_executor(
            None,
            lambda: [_item_payload(item, certificates) for item in items],
        )
        payload: Json = {
            "items": encoded,
            "trace_id": trace_id,
            "stats": {
                "submitted": len(items),
                "from_cache": sum(1 for item in items if item.from_cache),
                "deduplicated": sum(1 for item in items if item.deduplicated),
            },
        }
        if debug:
            payload["trace"] = self._trace_payload(trace_id)
        return 200, payload

    # ------------------------------------------------------------------
    # Maintained models (/v1/models)
    # ------------------------------------------------------------------

    @staticmethod
    def _json_object(body: bytes) -> dict:
        try:
            payload = json.loads(body.decode("utf-8"))
        except UnicodeDecodeError as error:
            raise _BadRequest(f"body is not UTF-8: {error}") from error
        if not isinstance(payload, dict):
            raise _BadRequest("request body must be a JSON object")
        return payload

    @staticmethod
    def _model_404(model_id: str) -> tuple[int, Json]:
        return 404, {
            "error": f"no model {model_id!r} (dropped, evicted or never "
            "registered?)"
        }

    async def _model_call(self, fn):
        """Run one model-store operation on the executor.

        Maintenance chases and core computations are real work — they
        must not run on the event loop. Library errors (arity
        mismatches, malformed programs) are the client's fault, so they
        surface as 400s; a missing model's KeyError propagates for the
        caller's 404.
        """
        try:
            return await asyncio.get_running_loop().run_in_executor(None, fn)
        except ReproError as error:
            raise _BadRequest(str(error)) from error

    def _parse_model_register(self, body: bytes):
        payload = self._json_object(body)
        if "schema" not in payload:
            raise _BadRequest("'schema' is required")
        schema = schema_from_json(payload["schema"])
        raw_dependencies = payload.get("dependencies", [])
        if not isinstance(raw_dependencies, list):
            raise _BadRequest("'dependencies' must be a list")
        dependencies = tuple(
            dependency_from_json(entry) for entry in raw_dependencies
        )
        rows = rows_from_json(payload.get("rows", []))
        budget = (
            budget_from_json(payload["budget"]) if "budget" in payload else None
        )
        return schema, dependencies, rows, budget

    async def _models_register(self, body: bytes) -> tuple[int, Json]:
        schema, dependencies, rows, budget = await self._decode_request(
            body, self._parse_model_register
        )
        model_id, report = await self._model_call(
            lambda: self.models.register(
                schema, dependencies, rows, budget=budget
            )
        )
        return 200, {
            "model_id": model_id,
            "report": report.to_json(),
            "model": self.models.info(model_id),
        }

    async def _models_dispatch(
        self, method: str, model_id: str, action: str, body: bytes
    ) -> tuple[int, Json]:
        if action == "":
            if method == "GET":
                try:
                    return 200, self.models.info(model_id)
                except KeyError:
                    return self._model_404(model_id)
            if method == "DELETE":
                if not self.models.drop(model_id):
                    return self._model_404(model_id)
                return 200, {"model_id": model_id, "deleted": True}
            return 405, {"error": "use GET or DELETE"}
        if action == "facts":
            if method != "POST":
                return 405, {"error": "use POST"}
            return await self._models_facts(model_id, body)
        if action == "query":
            if method != "POST":
                return 405, {"error": "use POST"}
            return await self._models_query(model_id, body)
        return 404, {
            "error": f"no route for {method} /v1/models/<id>/{action}"
        }

    def _parse_model_facts(self, body: bytes):
        payload = self._json_object(body)
        insert = rows_from_json(payload.get("insert", []))
        delete = rows_from_json(payload.get("delete", []))
        if not insert and not delete:
            raise _BadRequest("'insert' and/or 'delete' rows are required")
        return insert, delete

    async def _models_facts(
        self, model_id: str, body: bytes
    ) -> tuple[int, Json]:
        insert, delete = await self._decode_request(
            body, self._parse_model_facts
        )
        try:
            reports = await self._model_call(
                lambda: self.models.apply(
                    model_id, insert=insert, delete=delete
                )
            )
        except KeyError:
            return self._model_404(model_id)
        return 200, {
            "model_id": model_id,
            "reports": [report.to_json() for report in reports],
            "model": self.models.info(model_id),
        }

    def _parse_model_query(self, body: bytes):
        payload = self._json_object(body)
        has_query = "query" in payload
        has_target = "target" in payload
        if has_query == has_target:
            raise _BadRequest(
                "send exactly one of 'query' (a conjunctive query) or "
                "'target' (a dependency)"
            )
        if has_query:
            return cq_from_json(payload["query"]), None
        return None, dependency_from_json(payload["target"])

    async def _models_query(
        self, model_id: str, body: bytes
    ) -> tuple[int, Json]:
        query, target = await self._decode_request(
            body, self._parse_model_query
        )
        try:
            if query is not None:
                answers = await self._model_call(
                    lambda: self.models.answer(model_id, query)
                )
                return 200, {
                    "model_id": model_id,
                    "answers": rows_to_json(answers),
                    "count": len(answers),
                }
            implied = await self._model_call(
                lambda: self.models.implies(model_id, target)
            )
        except KeyError:
            return self._model_404(model_id)
        return 200, {"model_id": model_id, "implied": implied}


class ServerThread:
    """Host an :class:`InferenceServer` on a daemon thread.

    For tests and benchmarks that want a real HTTP server inside the
    current process::

        with ServerThread(InferenceService(), port=0) as handle:
            client = ServiceClient(handle.base_url)
            ...

    ``port=0`` binds an ephemeral port; :attr:`base_url` reports the one
    actually bound. :meth:`stop` tears the whole stack down, the
    service's worker pool included.
    """

    def __init__(self, service: Optional[InferenceService] = None, **server_kwargs):
        server_kwargs.setdefault("port", 0)
        self.server = InferenceServer(service, **server_kwargs)
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None

    @property
    def base_url(self) -> str:
        return f"http://{self.server.host}:{self.server.port}"

    def start(self) -> "ServerThread":
        # Fork the worker pool from the calling thread, before the
        # server thread exists — warm_up's contract (fork away from
        # threaded context) would be unsatisfiable afterwards.
        self.server.service.warm_up()
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-serve", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None or not self._ready.is_set():
            # Failed to come up (port taken, thread wedged): signal the
            # thread down — a slow start must not finish later and serve
            # with no stop handle — then drop the workers just forked.
            self.stop()
            self.server.service.close()
            if self._startup_error is not None:
                raise self._startup_error
            raise RuntimeError("server thread failed to start in time")
        return self

    def stop(self) -> None:
        exited = True
        if self._loop is not None and self._stop_event is not None:
            loop, stop_event = self._loop, self._stop_event
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=30)
            exited = not self._thread.is_alive()
            self._thread = None
        # The harness owns the whole lifecycle: shut the service's
        # worker pool down too, or every ServerThread with workers > 0
        # would leak its forked processes (close() is idempotent, so a
        # caller-owned service may still be closed again outside). Only
        # once the server thread is really gone, though — closing a pool
        # under a batch still draining on the orphaned executor would
        # break that batch and block here behind it.
        if exited:
            self.server.service.close()
        else:  # pragma: no cover - requires a wedged batch
            warnings.warn(
                "ServerThread: server thread still draining a batch after "
                "30s; leaving its worker pool open (close the service "
                "yourself once the batch finishes)",
                ResourceWarning,
                stacklevel=2,
            )

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # pragma: no cover - startup failures
            self._startup_error = error
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        await self.server.start()
        self._ready.set()
        await self._stop_event.wait()
        await self.server.stop()

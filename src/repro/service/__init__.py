"""Batch inference service (system S8).

Serving ``D ⊨ d`` at scale needs more than a correct solver: structurally
identical queries must be answered once, verdicts must be memoized with
certificates that remain independently checkable, and independent chases
must fan out across cores. This package layers exactly that on top of
:mod:`repro.chase`:

* :mod:`repro.service.cache` — a content-addressed verdict cache (LRU +
  optional append-only JSON-lines disk tier), keyed by the canonical
  query hashes of :mod:`repro.dependencies.canonical`;
* :mod:`repro.service.scheduler` — one dispatch function
  (:func:`run_task`: resume a stale UNKNOWN's checkpoint, else chase
  from scratch) run serially (:func:`serial_run`) or through a
  persistent :class:`WorkerPool` (submit/drain, crash containment);
* :mod:`repro.service.api` — the :class:`InferenceService` facade with
  ``submit()`` / ``run()`` / ``run_batch()``;
* :mod:`repro.service.server` — a long-lived stdlib-asyncio HTTP
  front-end that batches concurrent clients into shared
  :meth:`InferenceService.run` calls;
* :mod:`repro.service.client` — the synchronous :class:`ServiceClient`
  speaking the server's ``repro.io.json_codec`` wire format;
* :mod:`repro.service.instruments` — every pipeline layer's metric
  families (:mod:`repro.obs`) registered in one place, behind the
  server's ``GET /metrics`` and ``repro stats``.

The CLI's ``batch`` command (``python -m repro batch``) is a thin wrapper
over :class:`InferenceService`; ``python -m repro serve`` boots the HTTP
server.
"""

from repro.service.api import (
    BatchItem,
    BatchReport,
    BatchStats,
    InferenceService,
    ProofVerificationError,
)
from repro.service.instruments import STAGES, ServiceInstruments
from repro.service.cache import (
    CacheEntry,
    CacheStats,
    JsonLinesStore,
    ResultCache,
    budget_covers,
    budget_join,
    budget_meet,
    fold_entries,
    merge_unknown_entries,
)
from repro.service.client import (
    RemoteBatch,
    RemoteVerdict,
    RetryPolicy,
    ServiceClient,
    ServiceConnectionError,
    ServiceError,
    ServiceHTTPError,
    ServiceOverloadedError,
    ServiceUnavailableError,
)
from repro.service.scheduler import (
    PoolRun,
    QueryTask,
    WorkerPool,
    run_task,
    serial_run,
)
from repro.service.server import InferenceServer, ServerStats, ServerThread

__all__ = [
    "InferenceService",
    "BatchItem",
    "BatchReport",
    "BatchStats",
    "ResultCache",
    "CacheEntry",
    "CacheStats",
    "JsonLinesStore",
    "budget_covers",
    "budget_join",
    "budget_meet",
    "fold_entries",
    "merge_unknown_entries",
    "QueryTask",
    "PoolRun",
    "WorkerPool",
    "run_task",
    "serial_run",
    "InferenceServer",
    "ServerStats",
    "ServerThread",
    "ServiceClient",
    "ServiceError",
    "ServiceConnectionError",
    "ServiceHTTPError",
    "ServiceOverloadedError",
    "ServiceUnavailableError",
    "RetryPolicy",
    "RemoteVerdict",
    "RemoteBatch",
    "ProofVerificationError",
    "ServiceInstruments",
    "STAGES",
]

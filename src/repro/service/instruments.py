"""The service's metric families, registered in one place.

Every layer of the serving pipeline (facade, scheduler, cache, HTTP
server) instruments itself through a :class:`ServiceInstruments` built
over one shared :class:`~repro.obs.metrics.MetricsRegistry` —
registration is idempotent, so each layer constructs its own view
without coordination and they all land on the same families. Keeping
the names, help strings and bucket choices here is what makes the
README's metric table and ``GET /metrics`` agree by construction.

Stage naming: ``repro_stage_seconds{stage=...}`` is the one histogram
family every pipeline stage reports into — ``canonicalize`` (hashing a
query), ``cache_lookup`` (verdict-cache probe), ``dedup`` (fingerprint
grouping), ``queue_wait`` (a payload waiting for a free worker),
``chase`` (one chase dispatch, wire round-trip included for pooled
runs), ``record`` (writing verdicts back to the cache) and ``verify``
(optional replay-verification of PROVED traces).
"""

from __future__ import annotations

from repro.obs.metrics import (
    LATENCY_BUCKETS,
    MetricsRegistry,
    SIZE_BUCKETS,
    log_buckets,
)

#: Derived chase budgets span from tens of steps (tiny certified sets)
#: to the polynomial blowups of high-rank weakly acyclic programs; the
#: standard SIZE_BUCKETS top out at 256 and would flatten them all into
#: +Inf.
DERIVED_BUDGET_BUCKETS = log_buckets(10.0, 1e12)

#: Every stage reported into ``repro_stage_seconds``; children are
#: pre-created so a scrape lists the full pipeline even before traffic.
STAGES = (
    "canonicalize",
    "cache_lookup",
    "dedup",
    "queue_wait",
    "chase",
    "record",
    "verify",
)


class ServiceInstruments:
    """All serving-pipeline metric families on one registry."""

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self.stage_seconds = registry.histogram(
            "repro_stage_seconds",
            "Per-stage pipeline latency in seconds",
            labels=("stage",),
            buckets=LATENCY_BUCKETS,
        )
        #: The per-stage children, resolved once: the hot path observes
        #: through a dict lookup instead of a ``labels()`` call per query.
        self.stage = {
            stage: self.stage_seconds.labels(stage=stage) for stage in STAGES
        }
        self.queries = registry.counter(
            "repro_queries_total", "Queries submitted to the service"
        )
        self.batches = registry.counter(
            "repro_batches_total", "InferenceService.run calls"
        )
        self.cache_hits = registry.counter(
            "repro_cache_hits_total", "Queries answered from the verdict cache"
        )
        self.deduplicated = registry.counter(
            "repro_dedup_total",
            "Queries answered by another query's chase in the same batch",
        )
        self.executed = registry.counter(
            "repro_executed_total", "Deduplicated query groups actually chased"
        )
        self.batch_size = registry.histogram(
            "repro_batch_queries",
            "Queries per InferenceService.run call",
            buckets=SIZE_BUCKETS,
        )
        self.dedup_group_size = registry.histogram(
            "repro_dedup_group_size",
            "Structurally identical queries folded into one chase",
            buckets=SIZE_BUCKETS,
        )
        self.chase_run_seconds = registry.histogram(
            "repro_chase_run_seconds",
            "Wall seconds of one chase dispatch, by verdict",
            labels=("verdict",),
            buckets=LATENCY_BUCKETS,
        )
        self.chase_steps = registry.counter(
            "repro_chase_steps_total",
            "Trigger firings reported by finished chases",
        )
        self.chase_rows = registry.counter(
            "repro_chase_rows_total",
            "Rows inserted by finished chases",
        )
        self.pool_restarts = registry.counter(
            "repro_pool_restarts_total",
            "Worker pools discarded after a BrokenProcessPool",
        )
        self.fault_pool_restarts = registry.counter(
            "repro_fault_pool_restarts_total",
            "Worker pools rebuilt in place after a crash, batch kept alive",
        )
        self.fault_redispatched = registry.counter(
            "repro_fault_redispatched_total",
            "Undecided payloads re-dispatched after a worker crash",
        )
        self.fault_quarantined = registry.counter(
            "repro_fault_quarantined_total",
            "Payloads quarantined (FAILED) after repeatedly crashing workers",
        )
        self.fault_shed = registry.counter(
            "repro_fault_shed_total",
            "Requests shed with 429 because the admission queue was full",
        )
        self.cache_torn_lines = registry.counter(
            "repro_cache_torn_lines_total",
            "Torn or malformed JSON lines skipped while loading the disk cache",
        )
        self.checkpoint_resumes = registry.counter(
            "repro_checkpoint_resumes_total",
            "UNKNOWN retries resumed from a cached chase checkpoint",
        )
        self.checkpoints_stored = registry.counter(
            "repro_checkpoints_stored_total",
            "Chase checkpoints written next to UNKNOWN cache entries",
        )
        self.proof_verifications = registry.counter(
            "repro_proof_verifications_total",
            "PROVED traces replay-verified before being served",
        )
        self.analysis_certified = registry.counter(
            "repro_analysis_certified_total",
            "Executed query groups whose premise set carried a termination certificate",
        )
        self.analysis_uncertified = registry.counter(
            "repro_analysis_uncertified_total",
            "Executed query groups the static analyzer could not certify",
        )
        self.analysis_pruned = registry.counter(
            "repro_analysis_pruned_total",
            "Dependencies dropped by goal-directed pruning across executed groups",
        )
        self.analysis_derived_budget_steps = registry.histogram(
            "repro_analysis_derived_budget_steps",
            "Analyzer-derived max chase steps for certified, budget-free queries",
            buckets=DERIVED_BUDGET_BUCKETS,
        )
        self.cache_compactions = registry.counter(
            "repro_cache_compactions_total",
            "Disk-tier compactions run by ResultCache.close",
        )
        self.cache_compaction_seconds = registry.histogram(
            "repro_cache_compaction_seconds",
            "Wall seconds per disk-tier compaction",
            buckets=LATENCY_BUCKETS,
        )
        self.join_backend = registry.gauge(
            "repro_join_backend",
            "Resolved join backend (info gauge: 1 on the active backend's label)",
            labels=("backend",),
        )
        from repro.kernel.backend import resolve_join_backend

        active = resolve_join_backend()
        for backend in ("native", "python"):
            self.join_backend.labels(backend=backend).set(
                1.0 if backend == active else 0.0
            )

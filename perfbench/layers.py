"""Per-layer metrics of the traced run (the layer table, with the
end-to-end metric each layer should move, is in README.md).

The layers are the repository's modules. In-process workloads measure
them with benchmark-side spans (:mod:`spans`); ``http_mix`` reads the
server-side layers from ``GET /metrics``, ``GET /v1/stats`` and
``GET /v1/trace/<id>`` instead. The kernel and codec walkers have no
server-side metric, so on ``http_mix`` those two layers read 0 ("not
observable"), not "idle".

Times and counts are per unit of work (a batch, a query or a request,
see each workload), so runs of different length compare.
"""

from __future__ import annotations

STAGES = ("canonicalize", "cache_lookup", "dedup", "chase", "record", "verify", "queue_wait")

#: Every per-layer metric, with its unit, in report order.
PER_LAYER = (
    ("kernel.calls", "calls/unit"),
    ("kernel.nested_calls", "calls/unit"),
    ("kernel.self_ms", "ms/unit"),
    ("kernel.self_share", "ratio"),
    ("chase.calls", "calls/unit"),
    ("chase.self_ms", "ms/unit"),
    ("chase.steps", "steps/unit"),
    ("chase.self_share", "ratio"),
    ("analysis.calls", "calls/unit"),
    ("analysis.cold_calls", "calls/unit"),
    ("analysis.self_ms", "ms/unit"),
    ("analysis.pruned_rules", "rules/program"),
    ("analysis.certified_share", "ratio"),
    ("analysis.self_share", "ratio"),
    ("canonical.calls", "calls/unit"),
    ("canonical.self_ms", "ms/unit"),
    ("canonical.dedup_share", "ratio"),
    ("canonical.self_share", "ratio"),
    ("cache.lookup_ms", "ms/unit"),
    ("cache.record_ms", "ms/unit"),
    ("cache.hit_share", "ratio"),
    ("cache.self_share", "ratio"),
    ("codec.calls", "calls/unit"),
    ("codec.self_ms", "ms/unit"),
    ("codec.self_share", "ratio"),
    ("service.self_ms", "ms/unit"),
    ("service.self_share", "ratio"),
    *((f"service.stage.{stage}_ms", "ms/unit") for stage in STAGES),
    ("service.unattributed_ms", "ms/unit"),
    ("scheduler.queue_wait_ms", "ms/unit"),
    ("scheduler.dispatch_ms", "ms/unit"),
    ("scheduler.self_share", "ratio"),
    ("pool.start_s", "s"),
    ("server.request_ms", "ms"),
    ("server.http_overhead_ms", "ms"),
    ("server.coalesce_ratio", "queries/run"),
    ("server.shed", "count"),
    ("server.self_share", "ratio"),
    ("maintain.insert_ms", "ms/op"),
    ("maintain.delete_ms", "ms/op"),
    ("maintain.query_ms", "ms/op"),
    ("maintain.self_share", "ratio"),
    ("loadgen.lateness_p99_ms", "ms"),
    ("trace.unattributed_ms", "ms/unit"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
    ("trace.units", "count"),
)

def _blank() -> dict:
    return {name: 0.0 for name, __ in PER_LAYER}


def in_process(result: dict, tracer) -> dict:
    """Per-layer metrics from the spans of an in-process run."""
    metrics = _blank()
    units = result["units"]
    counters = result["counters"]
    self_seconds = tracer.self_seconds()
    # The spans' clock: unit latencies are CPU time (common.unit_clock).
    wall = tracer.unit_seconds()

    def ms(seconds: float) -> float:
        return seconds * 1000.0 / units

    def layer(name: str, *spans: str) -> None:
        seconds = sum(self_seconds.get(span, 0.0) for span in spans)
        metrics[f"{name}.self_share"] = seconds / wall
        if f"{name}.self_ms" in metrics:
            metrics[f"{name}.self_ms"] = ms(seconds)
        if f"{name}.calls" in metrics:
            metrics[f"{name}.calls"] = sum(tracer.calls[span] for span in spans) / units

    for name in ("kernel", "chase", "analysis", "canonical", "codec", "service"):
        layer(name, name)
    layer("cache", "cache.lookup", "cache.record")
    metrics["kernel.nested_calls"] = tracer.nested["kernel"] / units
    metrics["chase.steps"] = counters["chase.steps"] / units
    metrics["analysis.cold_calls"] = counters["analysis.cold_calls"] / units
    programs = max(1, counters["analysis.programs"])
    metrics["analysis.pruned_rules"] = counters["analysis.pruned_rules"] / programs
    metrics["analysis.certified_share"] = counters["analysis.certified"] / programs
    metrics["canonical.dedup_share"] = counters["canonical.duplicates"] / max(
        1, counters["canonical.fingerprints"]
    )
    metrics["cache.lookup_ms"] = ms(self_seconds.get("cache.lookup", 0.0))
    metrics["cache.record_ms"] = ms(self_seconds.get("cache.record", 0.0))
    metrics["cache.hit_share"] = counters["cache.hits"] / max(1, counters["cache.lookups"])
    snapshot = result["snapshot"]
    if snapshot is not None:
        staged = 0.0
        for stage in STAGES:
            sample = snapshot.sample("repro_stage_seconds", stage=stage)
            seconds = sample.value if sample is not None else 0.0
            staged += seconds
            metrics[f"service.stage.{stage}_ms"] = ms(seconds)
        metrics["service.unattributed_ms"] = ms(wall - staged)
    metrics["trace.unattributed_ms"] = ms(self_seconds["unit"])
    metrics["trace.unattributed_share"] = self_seconds["unit"] / wall
    metrics["trace.spans"] = float(len(tracer.start))
    metrics["trace.units"] = float(units)
    return metrics


def from_server(result: dict) -> dict:
    """Per-layer metrics of ``http_mix`` from the server's own surfaces."""
    metrics = _blank()
    http = result["http"]
    before, after = http["before"], http["after"]
    requests = http["requests"]
    client_seconds = http["client_seconds"]

    def delta(name: str, labels: str = "") -> float:
        return after.get((name, labels), 0.0) - before.get((name, labels), 0.0)

    def delta_all(name: str) -> float:
        return sum(value for (key, __), value in after.items() if key == name) - sum(
            value for (key, __), value in before.items() if key == name
        )

    def ms(seconds: float) -> float:
        return seconds * 1000.0 / requests

    stage = {s: delta("repro_stage_seconds_sum", f'stage="{s}"') for s in STAGES}
    for name, seconds in stage.items():
        metrics[f"service.stage.{name}_ms"] = ms(seconds)
    queries = max(1.0, delta("repro_queries_total"))
    executed = delta("repro_executed_total")
    metrics["chase.calls"] = executed / requests
    metrics["chase.self_ms"] = ms(stage["chase"])
    metrics["chase.steps"] = delta("repro_chase_steps_total") / requests
    metrics["chase.self_share"] = stage["chase"] / client_seconds
    certified = delta("repro_analysis_certified_total")
    analysed = certified + delta("repro_analysis_uncertified_total")
    metrics["analysis.certified_share"] = certified / max(1.0, analysed)
    metrics["analysis.pruned_rules"] = delta("repro_analysis_pruned_total") / max(1.0, analysed)
    metrics["canonical.calls"] = queries / requests
    metrics["canonical.self_ms"] = ms(stage["canonicalize"])
    metrics["canonical.dedup_share"] = delta("repro_dedup_total") / queries
    metrics["canonical.self_share"] = stage["canonicalize"] / client_seconds
    metrics["cache.lookup_ms"] = ms(stage["cache_lookup"])
    metrics["cache.record_ms"] = ms(stage["record"])
    metrics["cache.hit_share"] = delta("repro_cache_hits_total") / queries
    metrics["cache.self_share"] = (stage["cache_lookup"] + stage["record"]) / client_seconds
    stats_before, stats_after = http["stats_before"], http["stats_after"]
    batch_seconds = stats_after["batch_seconds"] - stats_before["batch_seconds"]
    service_seconds = batch_seconds + stage["canonicalize"] - sum(stage.values())
    metrics["service.unattributed_ms"] = ms(service_seconds)
    metrics["service.self_ms"] = ms(stage["dedup"])
    metrics["service.self_share"] = stage["dedup"] / client_seconds
    dispatch = delta_all("repro_chase_run_seconds_sum")
    metrics["scheduler.queue_wait_ms"] = ms(stage["queue_wait"])
    metrics["scheduler.dispatch_ms"] = ms(dispatch)
    metrics["scheduler.self_share"] = stage["queue_wait"] / client_seconds
    if http["pool_start_s"]:
        # The first call forks the workers; later ones are no-ops.
        metrics["pool.start_s"] = http["pool_start_s"][0]
    batches = stats_after["batches"] - stats_before["batches"]
    metrics["server.coalesce_ratio"] = (stats_after["queries"] - stats_before["queries"]) / max(1, batches)
    metrics["server.shed"] = float(stats_after["shed"] - stats_before["shed"])
    maintain_seconds = 0.0
    for op in ("insert", "delete", "query"):
        seconds = delta("repro_model_maintain_seconds_sum", f'op="{op}"')
        count = delta("repro_model_maintain_seconds_count", f'op="{op}"')
        maintain_seconds += seconds
        metrics[f"maintain.{op}_ms"] = seconds * 1000.0 / max(1.0, count)
    metrics["maintain.self_share"] = maintain_seconds / client_seconds
    traces = http["traces"]
    front_seconds = 0.0
    if traces:
        overhead = sum(latency - trace["wall_seconds"] for trace, latency in traces) / len(traces)
        metrics["server.request_ms"] = 1000.0 * sum(latency for __, latency in traces) / len(traces)
        metrics["server.http_overhead_ms"] = 1000.0 * overhead
        front_seconds = overhead * http["implies_requests"]
        metrics["server.self_share"] = front_seconds / client_seconds
    served = batch_seconds + stage["canonicalize"] + maintain_seconds + front_seconds
    unattributed = max(0.0, client_seconds - served)
    metrics["loadgen.lateness_p99_ms"] = result["attributes"]["lateness_p99_ms"]
    metrics["trace.unattributed_ms"] = ms(unattributed)
    metrics["trace.unattributed_share"] = unattributed / client_seconds
    metrics["trace.spans"] = float(len(traces))
    metrics["trace.units"] = float(requests)
    return metrics

"""Integration tests for the telemetry spine over real HTTP.

Boots a :class:`ServerThread`, drives a mixed batch (cache hit + dedup
pair + real chase) and asserts that ``/metrics``, ``/v1/trace/<id>``,
``?debug=1`` and the enriched ``/v1/stats`` all reflect what actually
happened — plus the facade-level verify path and the ``repro stats``
rendering helpers.
"""

import pytest

from repro.chase.implication import InferenceStatus
from repro.cli import _fmt_number, _histogram_quantile, _render_stats
from repro.dependencies.parser import parse_td
from repro.service import (
    InferenceService,
    ServerThread,
    ServiceClient,
    ServiceError,
)
from repro.workloads.generators import disguise


@pytest.fixture
def transitivity():
    return parse_td("R(x, y) & R(y, z) -> R(x, z)")


@pytest.fixture
def service():
    return InferenceService()


@pytest.fixture
def server(service):
    with ServerThread(service) as handle:
        yield handle


@pytest.fixture
def client(server):
    return ServiceClient(server.base_url)


def parse_exposition(text: str) -> dict[str, float]:
    """Prometheus text format -> {series: value}; raises on bad lines."""
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        assert series, f"unparsable exposition line {line!r}"
        samples[series] = float(value)
    return samples


class TestMetricsEndpoint:
    def test_mixed_batch_is_fully_accounted_for(
        self, client, service, transitivity
    ):
        """Cache hit + dedup pair + fresh chase, checked series by series."""
        base = parse_td("R(a, b) & R(b, c) -> R(a, c)")
        # Warm the cache with the base query.
        client.batch([transitivity], [base])
        # Mixed follow-up: the warm query (cache hit), two alpha-renamed
        # copies of a new query (dedup pair) and the pair's first member
        # is the batch's one real chase.
        longer = parse_td("R(a, b) & R(b, c) & R(c, d) -> R(a, d)")
        report = client.batch(
            [transitivity],
            [base, disguise(longer, seed=1), disguise(longer, seed=2)],
        )
        assert all(
            status is InferenceStatus.PROVED for status in report.statuses
        )
        assert report.stats["from_cache"] == 1
        assert report.stats["deduplicated"] == 1

        samples = parse_exposition(client.metrics_text())
        assert samples["repro_queries_total"] == 4
        assert samples["repro_batches_total"] == 2
        assert samples["repro_cache_hits_total"] == 1
        assert samples["repro_dedup_total"] == 1
        assert samples["repro_executed_total"] == 2
        assert samples["repro_cache_lookup_misses_total"] == 3
        assert samples["repro_cache_lookup_hits_total"] == 1
        assert samples["repro_cache_entries"] == 2
        # Every pipeline stage produced latency samples with sane sums.
        for stage, count in [
            ("canonicalize", 4),
            ("cache_lookup", 4),
            ("chase", 2),
            ("record", 2),
        ]:
            series = f'repro_stage_seconds_count{{stage="{stage}"}}'
            assert samples[series] == count, series
            total = samples[f'repro_stage_seconds_sum{{stage="{stage}"}}']
            assert 0 <= total < 60
        # Per-chase observations carry variant and verdict labels.
        proved = [
            key
            for key in samples
            if key.startswith("repro_chase_run_seconds_count")
            and 'verdict="proved"' in key
        ]
        assert proved and sum(samples[key] for key in proved) == 2
        assert samples["repro_chase_steps_total"] >= 2
        # The HTTP layer accounts for itself too.
        assert samples['repro_http_requests_total{route="/v1/batch"}'] == 2
        assert samples['repro_http_requests_total{route="/metrics"}'] == 1
        assert samples["repro_uptime_seconds"] > 0

    def test_exposition_is_well_formed(self, client, transitivity):
        client.implies(
            [transitivity], parse_td("R(a, b) & R(b, c) -> R(a, c)")
        )
        text = client.metrics_text()
        # Histogram invariant: +Inf bucket == count for every series.
        samples = parse_exposition(text)
        inf_buckets = {
            key: value
            for key, value in samples.items()
            if 'le="+Inf"' in key
        }
        assert inf_buckets
        for key, value in inf_buckets.items():
            count_key = (
                key.replace("_bucket{", "_count{")
                .replace(',le="+Inf"', "")
                .replace('{le="+Inf"}', "")
            )
            assert samples[count_key] == value, key
        assert "# TYPE repro_stage_seconds histogram" in text

    def test_http_errors_are_counted(self, client, transitivity):
        with pytest.raises(ServiceError, match="404"):
            client.request("GET", "/v1/nope")
        samples = parse_exposition(client.metrics_text())
        assert samples["repro_http_errors_total"] >= 1
        # Unknown paths collapse into a bounded "other" route label —
        # client-chosen paths must never mint new label values.
        assert samples['repro_http_requests_total{route="other"}'] == 1
        assert not any("/v1/nope" in key for key in samples)


class TestTraceEndpoint:
    def test_batch_trace_shows_stage_timeline_and_provenance(
        self, client, transitivity
    ):
        base = parse_td("R(a, b) & R(b, c) -> R(a, c)")
        client.batch([transitivity], [base])  # warm
        longer = parse_td("R(a, b) & R(b, c) & R(c, d) -> R(a, d)")
        report = client.batch(
            [transitivity],
            [base, disguise(longer, seed=1), disguise(longer, seed=2)],
        )
        assert report.trace_id
        trace = client.trace(report.trace_id)
        assert trace["trace_id"] == report.trace_id
        assert trace["wall_seconds"] > 0
        span_names = [span["name"] for span in trace["spans"]]
        assert span_names == [
            "canonicalize",
            "cache_lookup",
            "dedup",
            "dispatch",
            "record",
        ]
        by_name = {span["name"]: span for span in trace["spans"]}
        assert by_name["cache_lookup"]["attrs"] == {"lookups": 3, "hits": 1}
        assert by_name["dedup"]["attrs"] == {"groups": 1, "folded": 1}
        assert by_name["dispatch"]["attrs"]["executed"] == 1
        sources = [row["source"] for row in trace["queries"]]
        assert sources == ["cache", "chase", "dedup"]
        # Chase provenance rides on chased *and* deduplicated rows.
        assert trace["queries"][1]["chase"]["steps"] >= 1
        assert trace["queries"][2]["chase"] == trace["queries"][1]["chase"]
        assert trace["batch"]["submitted"] == 3

    def test_client_supplied_trace_id_partitions_queries(
        self, client, transitivity
    ):
        verdict = client.implies(
            [transitivity],
            parse_td("R(a, b) & R(b, c) -> R(a, c)"),
            trace_id="my-request-001",
        )
        assert verdict.trace_id == "my-request-001"
        trace = client.trace("my-request-001")
        assert len(trace["queries"]) == 1
        assert trace["queries"][0]["status"] == "proved"

    def test_debug_flag_inlines_the_trace(self, client, transitivity):
        verdict = client.implies(
            [transitivity],
            parse_td("R(a, b) & R(b, c) -> R(a, c)"),
            debug=True,
        )
        assert verdict.trace is not None
        assert verdict.trace["trace_id"] == verdict.trace_id
        assert any(
            span["name"] == "dispatch" for span in verdict.trace["spans"]
        )
        # Without the flag the response stays slim.
        again = client.implies(
            [transitivity], parse_td("R(a, b) & R(b, c) -> R(a, c)")
        )
        assert again.trace is None
        assert again.trace_id  # ...but still addressable after the fact.

    def test_unknown_trace_is_404(self, client):
        with pytest.raises(ServiceError, match="404"):
            client.trace("feedfacefeedface")

    def test_oversized_trace_id_is_400(self, client, transitivity):
        with pytest.raises(ServiceError, match="400"):
            client.implies(
                [transitivity],
                parse_td("R(a, b) & R(b, c) -> R(a, c)"),
                trace_id="x" * 65,
            )


class TestStatsEnrichment:
    def test_stats_carry_snapshot_and_seconds_split(
        self, client, transitivity
    ):
        client.batch(
            [transitivity], [parse_td("R(a, b) & R(b, c) -> R(a, c)")]
        )
        stats = client.stats()
        server_stats = stats["server"]
        # batch_seconds is whole-run wall, chase_seconds only the time
        # spent inside dispatched chases — the split the old conflated
        # counter hid.
        assert server_stats["batch_seconds"] > 0
        assert 0 < server_stats["chase_seconds"] <= server_stats["batch_seconds"]
        families = {
            family["name"] for family in stats["metrics"]["families"]
        }
        assert "repro_stage_seconds" in families
        assert "repro_queries_total" in families


class TestProofVerification:
    def test_verify_proofs_counts_and_times_replays(self, transitivity):
        service = InferenceService(verify_proofs=True)
        service.submit(
            (transitivity,), parse_td("R(a, b) & R(b, c) -> R(a, c)")
        )
        service.submit((transitivity,), parse_td("R(a, b) -> R(b, a)"))
        report = service.run()
        assert report.stats.executed == 2
        snapshot = service.metrics.snapshot()
        # Only the PROVED outcome has a trace to replay.
        assert snapshot.sample("repro_proof_verifications_total").value == 1
        assert snapshot.sample("repro_stage_seconds", stage="verify").count == 1
        trace = service.traces.get(report.trace_id)
        assert trace.span("verify").attrs == {"proofs_verified": 1}


class TestStatsRendering:
    """Unit coverage for the ``repro stats`` helpers."""

    def test_fmt_number(self):
        assert _fmt_number(3) == "3"
        assert _fmt_number(3.0) == "3"
        assert _fmt_number(0.000123456) == "0.000123"
        assert _fmt_number(12.3456) == "12.346"
        assert _fmt_number("text") == "text"

    def test_histogram_quantile_bucket_resolution(self):
        bounds = [0.1, 1.0, 10.0]
        counts = [5, 4, 1, 0]  # non-cumulative, +Inf slot last
        assert _histogram_quantile(bounds, counts, 0.5) == "0.1"
        assert _histogram_quantile(bounds, counts, 0.9) == "1"
        assert _histogram_quantile(bounds, counts, 0.99) == "10"
        assert _histogram_quantile(bounds, [0, 0, 0, 0], 0.5) == "-"
        assert _histogram_quantile(bounds, [0, 0, 0, 3], 0.5) == ">10"

    def test_render_stats_full_payload(self, client, transitivity):
        client.batch(
            [transitivity], [parse_td("R(a, b) & R(b, c) -> R(a, c)")]
        )
        rendered = _render_stats(client.stats())
        assert "server:" in rendered
        assert "counters & gauges:" in rendered
        assert "histograms (bucket-resolution quantiles)" in rendered
        assert 'repro_stage_seconds{stage="chase"}' in rendered
        assert "repro_queries_total" in rendered

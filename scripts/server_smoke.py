#!/usr/bin/env python
"""CI smoke test: boot ``repro serve`` on an ephemeral port, hit it, tear down.

Exercises the full deployment path — console entry point, ephemeral-port
binding, banner parsing, ``/healthz``, one ``/v1/batch`` over real HTTP,
concurrent ``/v1/implies`` requests through the group-commit batching
loop, the ``/metrics`` Prometheus exposition, a ``/v1/trace`` round trip
and a malformed client budget (400, then a valid query still answers) —
and exits non-zero on any failure. Run from the repository root::

    PYTHONPATH=src python scripts/server_smoke.py
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.chase.budget import Budget  # noqa: E402
from repro.chase.implication import InferenceStatus  # noqa: E402
from repro.dependencies.parser import parse_td  # noqa: E402
from repro.io.json_codec import dependency_to_json  # noqa: E402
from repro.service.client import ServiceClient, ServiceHTTPError  # noqa: E402
from repro.service.testing import ServeSubprocess  # noqa: E402


def main() -> int:
    with ServeSubprocess() as server:
        print(f"server banner: {server.banner.strip()}")
        client = ServiceClient(server.base_url, timeout=30.0)

        health = client.health()
        assert health["status"] == "ok", health
        print(f"healthz: {health}")

        transitivity = parse_td("R(x, y) & R(y, z) -> R(x, z)")
        report = client.batch(
            [transitivity],
            [
                parse_td("R(a, b) & R(b, c) -> R(a, c)"),
                parse_td("R(a, b) -> R(b, a)"),
            ],
            budget=Budget(max_steps=1_000),
        )
        statuses = [status.value for status in report.statuses]
        print(f"batch verdicts: {statuses}")
        assert report.statuses == [
            InferenceStatus.PROVED,
            InferenceStatus.DISPROVED,
        ], statuses

        stats = client.stats()
        assert stats["server"]["queries"] == 2, stats
        assert "metrics" in stats, "stats payload lost the registry snapshot"
        print(f"server stats: {stats['server']}")

        # Concurrent clients: each verdict is right, and runs never
        # outnumber the queries they answered.
        concurrent = [
            ("R(a, b) & R(b, c) -> R(a, c)", InferenceStatus.PROVED),
            ("R(u, v) & R(v, w) & R(w, t) -> R(u, t)", InferenceStatus.PROVED),
            ("R(a, b) -> R(b, a)", InferenceStatus.DISPROVED),
            ("R(a, b) & R(b, c) -> R(c, a)", InferenceStatus.DISPROVED),
        ]
        with ThreadPoolExecutor(max_workers=len(concurrent)) as executor:
            statuses = list(
                executor.map(
                    lambda case: ServiceClient(server.base_url).implies(
                        [transitivity], parse_td(case[0]), certificates=False
                    ).status,
                    concurrent,
                )
            )
        assert statuses == [expected for _, expected in concurrent], statuses
        stats = client.stats()["server"]
        assert stats["batches"] <= stats["queries"], stats
        print(
            f"concurrent implies: {len(statuses)} right verdicts; "
            f"{stats['batches']} runs for {stats['queries']} queries"
        )

        # /v1/trace: the batch's trace must be retrievable and show the
        # pipeline's stage timeline.
        assert report.trace_id, "batch response carried no trace_id"
        trace = client.trace(report.trace_id)
        span_names = [span["name"] for span in trace["spans"]]
        assert "cache_lookup" in span_names, span_names
        assert len(trace["queries"]) == 2, trace["queries"]
        print(f"trace {report.trace_id}: spans {span_names}")

        # /metrics: valid, non-empty Prometheus text exposition.
        text = client.metrics_text()
        assert text.strip(), "/metrics served an empty exposition"
        parsed = 0
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            series, _, value = line.rpartition(" ")
            assert series, f"unparsable exposition line {line!r}"
            float(value)  # every sample value must be a number
            parsed += 1
        assert parsed > 0, "exposition had no samples"
        for required in (
            "repro_stage_seconds_bucket",
            "repro_queries_total",
            "repro_http_requests_total",
            "repro_cache_lookup_misses_total",
        ):
            assert required in text, f"/metrics lost {required}"
        print(f"metrics: {parsed} samples parsed OK")

        # A non-numeric budget is the client's error (400), not a 500,
        # and the server keeps answering afterwards.
        target = parse_td("R(a, b) & R(b, c) & R(c, d) -> R(a, d)")
        body = {
            "dependencies": [dependency_to_json(transitivity)],
            "target": dependency_to_json(target),
            "budget": {"max_steps": "abc"},
        }
        try:
            client.request("POST", "/v1/implies", body)
        except ServiceHTTPError as error:
            assert error.status == 400, error
        else:
            raise AssertionError("a non-numeric budget was accepted")
        verdict = client.implies([transitivity], target)
        assert verdict.status is InferenceStatus.PROVED, verdict.status
        print("bad budget: 400, then a valid query answers")
        print("OK: serve boots, answers, reports stats, traces and metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())

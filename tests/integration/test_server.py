"""Integration tests: the asyncio HTTP server + synchronous client.

Each test boots a real server on an ephemeral localhost port (via
:class:`ServerThread`) and talks to it over actual HTTP, so the wire
format, group-commit batching loop and cross-client cache sharing are exercised
end to end.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.chase.budget import Budget
from repro.chase.engine import replay
from repro.chase.implication import InferenceStatus, conclusion_satisfied
from repro.dependencies.parser import parse_td
from repro.io.json_codec import dependency_to_json
from repro.service import (
    InferenceService,
    ServerThread,
    ServiceClient,
    ServiceError,
    ServiceHTTPError,
)
from repro.workloads.generators import disguise, transitivity_family


@pytest.fixture
def transitivity():
    return parse_td("R(x, y) & R(y, z) -> R(x, z)")


@pytest.fixture
def server():
    with ServerThread(InferenceService()) as handle:
        yield handle


@pytest.fixture
def client(server):
    return ServiceClient(server.base_url)


class TestEndpoints:
    def test_healthz(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0

    def test_implies_proved_with_replayable_certificate(self, client, transitivity):
        verdict = client.implies(
            [transitivity], parse_td("R(a, b) & R(b, c) & R(c, d) -> R(a, d)")
        )
        assert verdict.status is InferenceStatus.PROVED
        # The certificate crossed the wire intact: replay it client-side.
        start, frozen = verdict.outcome.target.freeze()
        final = replay(start, verdict.outcome.chase_result.steps, verify=True)
        assert conclusion_satisfied(final, verdict.outcome.target, frozen)

    def test_implies_without_certificates_is_slim(self, client, transitivity):
        verdict = client.implies(
            [transitivity],
            parse_td("R(a, b) & R(b, c) -> R(a, c)"),
            certificates=False,
        )
        assert verdict.status is InferenceStatus.PROVED
        assert verdict.outcome.chase_result is None

    def test_batch_statuses_and_request_budget(self, client, transitivity):
        batch = client.batch(
            [transitivity],
            [
                parse_td("R(a, b) & R(b, c) -> R(a, c)"),
                parse_td("R(a, b) -> R(b, a)"),
                # Starved by the request budget below: honest third value.
                parse_td("R(p, q) & R(q, r) & R(r, s) & R(s, t) -> R(p, t)"),
            ],
            budget=Budget(max_steps=2),
        )
        assert batch.statuses == [
            InferenceStatus.PROVED,
            InferenceStatus.DISPROVED,
            InferenceStatus.UNKNOWN,
        ]
        assert batch.stats["submitted"] == 3
        # The UNKNOWN ships slim even from a serial (workers=0) server:
        # a budget-exhausted chase result is debris, not a certificate.
        assert batch.items[2].outcome.chase_result is None
        # Decisive verdicts keep their certificates by default.
        assert batch.items[0].outcome.chase_result is not None

    def test_stats_endpoint_counts_traffic(self, client, transitivity):
        client.batch([transitivity], [parse_td("R(a, b) & R(b, c) -> R(a, c)")])
        stats = client.stats()
        assert stats["server"]["queries"] == 1
        assert stats["server"]["executed"] == 1
        assert stats["cache"]["size"] == 1
        assert stats["batching"]["max_batch"] >= 1

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError, match="404"):
            client.request("GET", "/v1/nope")
        # Error responses still count as requests, so monitoring ratios
        # (http_errors / requests) stay well-defined.
        stats = client.stats()
        assert stats["server"]["http_errors"] >= 1
        assert stats["server"]["requests"] > stats["server"]["http_errors"]

    def test_client_budget_is_clamped_into_server_ceiling(self, transitivity):
        """An unlimited (or empty) request budget must not wedge the
        server: budgets only narrow the server's ceiling."""
        service = InferenceService()
        with ServerThread(
            service,
            default_budget=Budget(max_steps=25, max_seconds=5.0),
        ) as handle:
            client = ServiceClient(handle.base_url)
            diverging = parse_td("R(x, y) -> R(y, x2)")
            target = parse_td("R(a, b) -> R(b, a)")
            # "budget": {} decodes to unlimited on every axis; clamped to
            # the 25-step ceiling this answers UNKNOWN promptly instead
            # of chasing the diverging premises forever.
            verdict = client.implies(
                [diverging], target, budget=Budget.unlimited()
            )
            assert verdict.status is InferenceStatus.UNKNOWN
            # The server stays responsive afterwards.
            assert client.health()["status"] == "ok"

    def test_malformed_verdict_payload_raises_service_error(self):
        from repro.service.client import RemoteVerdict

        with pytest.raises(ServiceError, match="malformed"):
            RemoteVerdict.from_payload({"no": "outcome"})
        with pytest.raises(ServiceError, match="malformed"):
            RemoteVerdict.from_payload({"outcome": {}, "status": "nonsense"})
        with pytest.raises(ServiceError, match="malformed"):
            RemoteVerdict.from_payload({"outcome": {}})  # no status at all

    def test_wrong_method_is_405(self, client):
        with pytest.raises(ServiceError, match="405"):
            client.request("GET", "/v1/implies")

    def test_malformed_body_is_400(self, client):
        with pytest.raises(ServiceError, match="400"):
            client.request("POST", "/v1/implies", {"dependencies": "not-a-list"})

    def test_missing_target_is_400(self, client):
        with pytest.raises(ServiceError, match="400"):
            client.request("POST", "/v1/implies", {"dependencies": []})

    @pytest.mark.parametrize(
        "budget",
        [
            {"max_steps": "abc"},
            {"max_seconds": "x"},
            {"max_rows": [1]},
            {"max_steps": -1},
        ],
    )
    def test_malformed_budget_is_400(self, client, transitivity, budget):
        """A bad budget axis is the client's error, never a 500, and the
        server keeps answering valid queries afterwards."""
        target = parse_td("R(a, b) & R(b, c) -> R(a, c)")
        body = {
            "dependencies": [dependency_to_json(transitivity)],
            "target": dependency_to_json(target),
            "budget": budget,
        }
        with pytest.raises(ServiceHTTPError) as raised:
            client.request("POST", "/v1/implies", body)
        assert raised.value.status == 400
        del body["budget"]
        answer = client.request("POST", "/v1/implies", body)
        assert answer["status"] == InferenceStatus.PROVED.value

    def test_chunked_transfer_encoding_is_rejected_cleanly(self, server):
        import socket

        with socket.create_connection(
            (server.server.host, server.server.port), timeout=10
        ) as raw:
            raw.sendall(
                b"POST /v1/implies HTTP/1.1\r\n"
                b"Transfer-Encoding: chunked\r\n"
                b"\r\n"
            )
            answer = raw.recv(65536).decode("latin-1")
        assert "400" in answer.splitlines()[0]
        assert "Transfer-Encoding" in answer


class TestCrossClientSharing:
    def test_two_concurrent_clients_chase_once(self, server, transitivity):
        """Alpha-renamed duplicates from concurrent clients cost one chase.

        Whether the two requests share one run (dedup) or land in
        consecutive runs (cache hit), the server must execute
        exactly one chase for the five structurally identical queries per
        client — asserted through the /v1/stats counters.
        """
        base = parse_td("R(a, b) & R(b, c) & R(c, d) -> R(a, d)")
        barrier = threading.Barrier(2)

        def one_client(client_number: int):
            client = ServiceClient(server.base_url)
            targets = [
                disguise(base, seed=client_number * 100 + index, tag="c")
                for index in range(5)
            ]
            barrier.wait(timeout=30)
            return client.batch([transitivity], targets)

        with ThreadPoolExecutor(max_workers=2) as executor:
            reports = list(executor.map(one_client, [1, 2]))

        for report in reports:
            assert all(
                status is InferenceStatus.PROVED for status in report.statuses
            )
        stats = ServiceClient(server.base_url).stats()
        assert stats["server"]["queries"] == 10
        assert stats["server"]["executed"] == 1
        # Everything else was answered by dedup or the shared cache.
        assert (
            stats["server"]["deduplicated"] + stats["server"]["cache_hits"] == 9
        )

    def test_second_client_is_served_from_cache(self, server, transitivity):
        base = parse_td("R(a, b) & R(b, c) -> R(a, c)")
        first = ServiceClient(server.base_url)
        first.batch([transitivity], [disguise(base, seed=1)])
        second = ServiceClient(server.base_url)
        report = second.batch([transitivity], [disguise(base, seed=2)])
        assert report.items[0].from_cache
        stats = second.stats()
        assert stats["server"]["executed"] == 1
        assert stats["server"]["cache_hits"] == 1


class TestGroupCommit:
    """Queries that queue while a run is busy share the next run.

    Each test holds a first run busy with :class:`RunGate`, fills the
    queue behind it and then releases it.
    """

    HELD = "R(a, b) & R(b, c) -> R(a, c)"

    def _hold_first_run(self, handle, gate, transitivity):
        """Start one query whose run blocks on ``gate``; return its thread."""
        first = threading.Thread(
            target=ServiceClient(handle.base_url).implies,
            args=([transitivity], parse_td(self.HELD)),
        )
        first.start()
        assert gate.entered.wait(timeout=30)
        return first

    def test_queued_duplicates_from_many_clients_run_once(
        self, run_gate, transitivity
    ):
        with ServerThread(InferenceService()) as handle:
            # Warm the held query, so the held run chases nothing and
            # every chase after `before` belongs to the duplicates.
            ServiceClient(handle.base_url).implies(
                [transitivity], parse_td(self.HELD)
            )
            gate = run_gate(handle.server)
            first = self._hold_first_run(handle, gate, transitivity)
            before = ServiceClient(handle.base_url).stats()["server"]
            base = parse_td("R(a, b) & R(b, c) & R(c, d) -> R(a, d)")
            clients = 4
            with ThreadPoolExecutor(max_workers=clients) as executor:
                futures = [
                    executor.submit(
                        ServiceClient(handle.base_url).implies,
                        [transitivity],
                        disguise(base, seed=index, tag="g"),
                    )
                    for index in range(clients)
                ]
                gate.wait_queued(clients)
                gate.release.set()
                verdicts = [future.result(timeout=30) for future in futures]
            first.join(timeout=30)
            after = ServiceClient(handle.base_url).stats()["server"]
        assert all(v.status is InferenceStatus.PROVED for v in verdicts)
        # The held run (a cache hit), then exactly one further run for
        # all duplicates, which chases once.
        assert gate.sizes == [1, clients]
        assert after["batches"] - before["batches"] == 1 + 1
        assert after["executed"] - before["executed"] == 1
        assert after["deduplicated"] - before["deduplicated"] == clients - 1

    def test_max_batch_caps_each_run(self, run_gate, transitivity):
        with ServerThread(InferenceService(), max_batch=2) as handle:
            gate = run_gate(handle.server)
            first = self._hold_first_run(handle, gate, transitivity)
            with ThreadPoolExecutor(max_workers=5) as executor:
                futures = [
                    executor.submit(
                        ServiceClient(handle.base_url).implies,
                        [transitivity],
                        transitivity_family(length)[-1],
                    )
                    for length in range(3, 8)
                ]
                gate.wait_queued(5)
                gate.release.set()
                verdicts = [future.result(timeout=30) for future in futures]
            first.join(timeout=30)
        assert all(v.status is InferenceStatus.PROVED for v in verdicts)
        assert gate.sizes == [1, 2, 2, 1]

    def test_batch_request_is_never_split(self, run_gate, transitivity):
        """A /v1/batch of max_batch targets queued behind a single query
        runs whole in its own run: a query-by-query take would pair the
        single query with two of its targets and strand the third."""
        with ServerThread(InferenceService(), max_batch=3) as handle:
            gate = run_gate(handle.server)
            first = self._hold_first_run(handle, gate, transitivity)
            with ThreadPoolExecutor(max_workers=2) as executor:
                single = executor.submit(
                    ServiceClient(handle.base_url).implies,
                    [transitivity],
                    transitivity_family(6)[-1],
                )
                gate.wait_queued(1)
                batch = executor.submit(
                    ServiceClient(handle.base_url).batch,
                    [transitivity],
                    [transitivity_family(length)[-1] for length in (3, 4, 5)],
                )
                gate.wait_queued(4)
                gate.release.set()
                assert single.result(timeout=30).status is InferenceStatus.PROVED
                report = batch.result(timeout=30)
            first.join(timeout=30)
        assert report.statuses == [InferenceStatus.PROVED] * 3
        assert gate.sizes == [1, 1, 3]

    def test_concurrent_mixed_clients_leave_nothing_queued(
        self, transitivity
    ):
        """More client threads than cores, implies and batch requests
        mixed: every verdict is right and the queue count returns to 0."""
        targets = [transitivity_family(length)[-1] for length in range(2, 6)]
        with ServerThread(InferenceService(), max_batch=3) as handle:

            def one_client(number: int):
                client = ServiceClient(handle.base_url)
                if number % 2:
                    return [client.implies([transitivity], targets[number % 4]).status]
                return client.batch([transitivity], targets).statuses

            with ThreadPoolExecutor(max_workers=12) as executor:
                answers = list(executor.map(one_client, range(24), timeout=60))
            stats = ServiceClient(handle.base_url).stats()
        assert all(
            status is InferenceStatus.PROVED
            for statuses in answers
            for status in statuses
        )
        assert stats["batching"]["queued"] == 0
        assert stats["server"]["queries"] == 12 * 1 + 12 * len(targets)
        assert stats["server"]["batches"] <= stats["server"]["queries"]

    def test_stats_report_max_batch_and_no_timer(self):
        with ServerThread(InferenceService(), max_batch=7) as handle:
            batching = ServiceClient(handle.base_url).stats()["batching"]
        # max_batch is the one batching knob: no timer is reported.
        assert batching["max_batch"] == 7
        assert set(batching) == {
            "max_batch", "workers", "default_budget", "queued", "max_queue"
        }


class TestServerWithWorkers:
    def test_pooled_server_round_trip_and_pool_teardown(self, transitivity):
        service = InferenceService(workers=1)
        with ServerThread(service) as handle:
            client = ServiceClient(handle.base_url)
            verdict = client.implies(
                [transitivity], parse_td("R(a, b) & R(b, c) -> R(a, c)")
            )
            assert verdict.status is InferenceStatus.PROVED
        # The harness owns the lifecycle: leaving the context must have
        # shut the service's forked worker pool down, not leaked it.
        assert service._worker_pool is None

"""Load shedding, readiness and graceful drain under a live server."""

from __future__ import annotations

import threading
import time

import pytest

from repro.chase.budget import Budget
from repro.chase.implication import InferenceStatus
from repro.dependencies.parser import parse_td
from repro.service import (
    InferenceService,
    RetryPolicy,
    ServiceClient,
    ServiceOverloadedError,
    ServiceUnavailableError,
)
from repro.service.server import InferenceServer, ServerThread


def transitivity():
    return parse_td("R(x, y) & R(y, z) -> R(x, z)")


def chain(n: int):
    atoms = " & ".join(f"R(a{i}, a{i + 1})" for i in range(n))
    return parse_td(f"{atoms} -> R(a0, a{n})")


class TestShedding:
    def test_request_past_queue_capacity_is_shed_with_429(self):
        service = InferenceService()
        with ServerThread(service, max_queue=2) as handle:
            client = ServiceClient(handle.base_url)
            with pytest.raises(ServiceOverloadedError) as excinfo:
                client.batch(
                    [transitivity()], [chain(n) for n in range(2, 6)]
                )
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after is not None
            assert "queue" in excinfo.value.detail
            # Shedding is per-request: a request that fits is served.
            verdict = client.implies([transitivity()], chain(2))
            assert verdict.status is InferenceStatus.PROVED
            stats = client.stats()
            assert stats["server"]["shed"] == 1
            assert stats["batching"]["max_queue"] == 2

    def test_injected_shed_takes_the_real_429_path(self, arm_fault):
        arm_fault("shed", "/v1/implies")
        with ServerThread(InferenceService()) as handle:
            client = ServiceClient(handle.base_url)
            with pytest.raises(ServiceOverloadedError) as excinfo:
                client.implies([transitivity()], chain(2))
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after is not None
            # Other routes are untouched by the armed point.
            assert client.health()["status"] == "ok"
            assert "repro_fault_shed_total 1" in client.metrics_text()

    def test_retry_policy_rides_out_a_shed(self, arm_fault):
        # Latch: the first /v1/implies is shed, the retry is admitted.
        arm_fault("shed", "/v1/implies", latch=True)
        sleeps: list[float] = []
        with ServerThread(InferenceService()) as handle:
            client = ServiceClient(
                handle.base_url,
                retry=RetryPolicy(
                    max_attempts=3, base_delay=0.0, max_delay=0.0
                ),
                sleep=sleeps.append,
            )
            verdict = client.implies([transitivity()], chain(2))
            assert verdict.status is InferenceStatus.PROVED
            assert client.retries == 1
            assert len(sleeps) == 1


class TestDroppedConnections:
    def test_dropped_connection_is_a_typed_connection_error(self, arm_fault):
        from repro.service import ServiceConnectionError

        arm_fault("drop_conn", "/v1/stats")
        with ServerThread(InferenceService()) as handle:
            client = ServiceClient(handle.base_url)
            with pytest.raises(ServiceConnectionError):
                client.stats()
            # Only the armed path drops; liveness is unaffected.
            assert client.health()["status"] == "ok"

    def test_retry_policy_recovers_from_a_dropped_connection(
        self, arm_fault
    ):
        arm_fault("drop_conn", "/healthz", latch=True)
        sleeps: list[float] = []
        with ServerThread(InferenceService()) as handle:
            client = ServiceClient(
                handle.base_url,
                retry=RetryPolicy(
                    max_attempts=3, base_delay=0.0, max_delay=0.0
                ),
                sleep=sleeps.append,
            )
            assert client.health()["status"] == "ok"
            assert client.retries == 1


class TestReadiness:
    def test_readyz_reports_ready_with_queue_headroom(self):
        with ServerThread(InferenceService()) as handle:
            ready = ServiceClient(handle.base_url).ready()
            assert ready["status"] == "ready"
            assert ready["queued"] == 0
            assert ready["max_queue"] == 256

    def test_unstarted_server_reports_starting(self):
        server = InferenceServer(InferenceService())
        status, payload, headers = server._readyz()
        assert status == 503
        assert payload["status"] == "starting"
        assert headers["Retry-After"]

    def test_draining_server_goes_503_on_readyz_and_submissions(self):
        service = InferenceService()
        with ServerThread(service) as handle:
            client = ServiceClient(handle.base_url)
            assert client.ready()["status"] == "ready"
            # Flip the drain flag as stop() would (one bool write; the
            # event loop picks it up on the next request).
            handle.server._stopping = True
            with pytest.raises(ServiceUnavailableError) as excinfo:
                client.ready()
            assert excinfo.value.status == 503
            with pytest.raises(ServiceUnavailableError) as excinfo:
                client.implies([transitivity()], chain(2))
            assert excinfo.value.status == 503
            assert excinfo.value.retry_after is not None
            # Liveness stays green throughout the drain.
            assert client.health()["status"] == "ok"


class TestDrain:
    def test_stop_answers_inflight_queries_instead_of_cancelling(
        self, run_gate
    ):
        service = InferenceService()
        handle = ServerThread(service, drain_timeout=20.0).start()
        gate = run_gate(handle.server)
        client = ServiceClient(handle.base_url)
        answers: dict = {}

        def call():
            try:
                answers["verdict"] = client.implies(
                    [transitivity()], chain(4), Budget(max_steps=2_000)
                )
            except Exception as error:  # pragma: no cover - failure path
                answers["error"] = error

        thread = threading.Thread(target=call)
        thread.start()
        # Hold the query's run busy, then begin stop(): the drain must
        # wait for the held run and answer it, not cancel it.
        assert gate.entered.wait(timeout=30)
        stopper = threading.Thread(target=handle.stop)
        stopper.start()
        deadline = time.monotonic() + 30
        while not handle.server._stopping:
            assert time.monotonic() < deadline, "stop() never began"
            time.sleep(0.005)
        gate.release.set()
        stopper.join(timeout=30)
        thread.join(timeout=30)
        assert not stopper.is_alive()
        assert not thread.is_alive()
        assert "error" not in answers, answers.get("error")
        assert answers["verdict"].status is InferenceStatus.PROVED

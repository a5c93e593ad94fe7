"""Worker crashes under a live HTTP server: containment, not 500s.

The regression suite for the crash-containment contract end to end:
a worker process dying mid-batch must cost a pool rebuild and a
re-dispatch, never an HTTP error or a lost verdict; a payload that
*keeps* killing workers must come back as a structured FAILED verdict,
not take the batch (or the server) down with it.
"""

from __future__ import annotations

import re

import pytest

from repro.chase.implication import InferenceStatus
from repro.dependencies.parser import parse_td
from repro.service import InferenceService, ServiceClient
from repro.service.server import ServerThread


def transitivity():
    return parse_td("R(x, y) & R(y, z) -> R(x, z)")


def chain(n: int):
    """``R(a0,a1) & ... -> R(a0,an)``: PROVED under transitivity."""
    atoms = " & ".join(f"R(a{i}, a{i + 1})" for i in range(n))
    return parse_td(f"{atoms} -> R(a0, a{n})")


def metric_value(text: str, name: str) -> float:
    for line in text.splitlines():
        if re.match(rf"{re.escape(name)}(\{{[^}}]*\}})? ", line):
            return float(line.rsplit(" ", 1)[1])
    return 0.0


class TestWorkerKill:
    def test_killed_worker_is_contained_and_verdicts_survive(
        self, arm_fault
    ):
        # Latch: exactly one dispatch, in whichever worker gets it,
        # calls os._exit(1) mid-batch. Armed before the ServerThread
        # starts so the pool initializer ships the spec to workers.
        arm_fault("worker_kill", "*", latch=True)
        service = InferenceService(workers=2)
        with ServerThread(service) as handle:
            client = ServiceClient(handle.base_url)
            answer = client.batch(
                [transitivity()], [chain(n) for n in range(2, 7)]
            )
            # No 500, no lost slots: every query gets its real verdict
            # even though a worker died holding some of them.
            assert answer.statuses == [InferenceStatus.PROVED] * 5
            text = client.metrics_text()
            assert metric_value(text, "repro_fault_pool_restarts_total") >= 1
            assert metric_value(text, "repro_fault_redispatched_total") >= 1
            assert metric_value(text, "repro_fault_quarantined_total") == 0
            # The server itself never saw an HTTP error.
            stats = client.stats()
            assert stats["server"]["http_errors"] == 0

    def test_persistent_killer_is_quarantined_as_failed(self, arm_fault):
        # No latch: the payload kills every worker that ever takes it.
        # After CRASH_LIMIT pool crashes with it in flight, it must be
        # quarantined as a structured FAILED verdict — an operational
        # outcome asserting nothing about D |= d — not as an HTTP 500.
        arm_fault("worker_kill", "*")
        service = InferenceService(workers=1)
        with ServerThread(service) as handle:
            client = ServiceClient(handle.base_url)
            verdict = client.implies([transitivity()], chain(2))
            assert verdict.status is InferenceStatus.FAILED
            assert verdict.outcome.error  # operator-readable reason
            text = client.metrics_text()
            assert metric_value(text, "repro_fault_quarantined_total") >= 1
            assert client.stats()["server"]["http_errors"] == 0

    def test_failed_is_never_cached_so_recovery_is_immediate(
        self, arm_fault, monkeypatch
    ):
        latch = arm_fault("worker_kill", "*")  # persistent while armed
        service = InferenceService(workers=1)
        with ServerThread(service) as handle:
            client = ServiceClient(handle.base_url)
            assert (
                client.implies([transitivity()], chain(3)).status
                is InferenceStatus.FAILED
            )
            # Disarm and re-ask: the quarantine must not have been
            # memoized — the same query now chases and resolves.
            monkeypatch.delenv("REPRO_FAULT_WORKER_KILL")
            verdict = client.implies([transitivity()], chain(3))
            assert verdict.status is InferenceStatus.PROVED
            assert not verdict.from_cache
        assert latch is None  # selector mode: no latch file involved


class TestRestartBudget:
    def test_zero_restart_budget_fails_fast_without_raising(self, arm_fault):
        arm_fault("worker_kill", "*", latch=True)
        service = InferenceService(workers=1, max_restarts=0)
        with ServerThread(service) as handle:
            client = ServiceClient(handle.base_url)
            verdict = client.implies([transitivity()], chain(2))
            # Budget exhausted on the first crash: FAILED, not a 500.
            assert verdict.status is InferenceStatus.FAILED
            assert "restart budget" in (verdict.outcome.error or "")
        # The next server (fault latched away) works normally.
        with ServerThread(InferenceService(workers=1)) as handle:
            client = ServiceClient(handle.base_url)
            assert (
                client.implies([transitivity()], chain(2)).status
                is InferenceStatus.PROVED
            )


class TestPoolMaxRestartsWiring:
    def test_service_threads_max_restarts_to_its_pool(self):
        service = InferenceService(workers=1, max_restarts=7)
        try:
            assert service.pool().max_restarts == 7
        finally:
            service.close()

    def test_negative_max_restarts_rejected(self):
        with pytest.raises(ValueError):
            InferenceService(workers=1, max_restarts=-1)

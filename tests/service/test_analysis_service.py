"""End-to-end acceptance tests for analyzer-backed serving.

A certified weakly-acyclic implication query submitted over HTTP with
*no client budget* must come back decisive (never UNKNOWN) and carry the
analyzer's provenance; uncertified sets must still honor explicit
budgets exactly as before.  Also checks the ``repro_analysis_*`` metric
families register and move.
"""

from __future__ import annotations

import pytest

from repro.chase.budget import Budget
from repro.chase.implication import InferenceStatus
from repro.dependencies.parser import parse_td
from repro.obs.metrics import MetricsRegistry
from repro.service import (
    InferenceService,
    ServerThread,
    ServiceClient,
)
from repro.service.instruments import ServiceInstruments
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


class TestCertifiedQueriesOverHTTP:
    def test_budgetless_query_is_decisive_with_provenance(
        self, client, transitivity
    ):
        # No budget in the request: the server derives one from the
        # termination certificate instead of applying its ceiling.
        verdict = client.implies([transitivity], transitivity_family(6)[-1])
        assert verdict.status is InferenceStatus.PROVED
        provenance = verdict.outcome.analysis
        assert provenance is not None
        assert provenance["certified"] is True
        assert provenance["applied"] is True
        assert provenance["fragment"] == "full-tgd"
        assert provenance["derived_max_steps"] is not None

    def test_budgetless_disproof_is_decisive(self, client, transitivity):
        symmetric_target = parse_td("R(x, y) -> R(y, x)")
        verdict = client.implies([transitivity], symmetric_target)
        assert verdict.status is InferenceStatus.DISPROVED
        assert verdict.outcome.analysis is not None
        assert verdict.outcome.analysis["applied"] is True

    def test_pruning_provenance_crosses_the_wire(self, client, transitivity):
        duplicate = disguise(transitivity, seed=3)
        verdict = client.implies(
            [transitivity, duplicate], transitivity_family(4)[-1]
        )
        assert verdict.status is InferenceStatus.PROVED
        provenance = verdict.outcome.analysis
        assert provenance is not None
        assert provenance["pruned"] == 1
        assert provenance["dropped"][0]["reason"] == "duplicate"

    def test_explicit_budget_still_starves(self, client, transitivity):
        # A client that *asks* for a budget keeps exact legacy behavior,
        # even though the premise set is certified.
        verdict = client.implies(
            [transitivity],
            transitivity_family(8)[-1],
            budget=Budget(max_steps=2, max_rows=None, max_seconds=None),
        )
        assert verdict.status is InferenceStatus.UNKNOWN
        provenance = verdict.outcome.analysis
        assert provenance is not None
        assert provenance["certified"] is True
        assert provenance["applied"] is False

    def test_uncertified_set_honors_budget(self, client):
        successor = parse_td("R(x, y) -> R(y, z)")
        verdict = client.implies(
            [successor],
            parse_td("R(x, y) & R(y, z) -> R(x, z)"),
            budget=Budget(max_steps=50, max_rows=200, max_seconds=None),
        )
        assert verdict.status is InferenceStatus.UNKNOWN
        assert verdict.outcome.analysis is not None
        assert verdict.outcome.analysis["certified"] is False


class TestAnalysisMetrics:
    def test_counters_move_on_certified_run(self, transitivity):
        service = InferenceService()
        service.submit([transitivity], transitivity_family(5)[-1])
        report = service.run(derive_budgets=True)
        assert report.outcomes[0].status is InferenceStatus.PROVED
        exported = service.metrics.render_prometheus()
        assert "repro_analysis_certified_total 1" in exported
        assert "repro_analysis_derived_budget_steps" in exported

    def test_uncertified_counter_moves(self):
        successor = parse_td("R(x, y) -> R(y, z)")
        service = InferenceService()
        service.submit([successor], parse_td("R(x, y) & R(y, z) -> R(x, z)"))
        service.run(Budget(max_steps=10, max_rows=50, max_seconds=None))
        exported = service.metrics.render_prometheus()
        assert "repro_analysis_uncertified_total 1" in exported

    def test_families_registered_before_traffic(self):
        instruments = ServiceInstruments(MetricsRegistry())
        exported = instruments.registry.render_prometheus()
        for family in (
            "repro_analysis_certified_total",
            "repro_analysis_uncertified_total",
            "repro_analysis_pruned_total",
            "repro_analysis_derived_budget_steps",
        ):
            assert family in exported

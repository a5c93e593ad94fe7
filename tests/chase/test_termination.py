"""Tests for weak-acyclicity termination analysis.

The position-graph facts come from
:func:`repro.analysis.positions.position_facts`; the rendered report is
:meth:`repro.analysis.report.AnalysisReport.describe`.
"""

import pytest

from repro.analysis import PositionEdge, analyze, position_facts
from repro.chase.budget import Budget
from repro.chase.engine import chase
from repro.chase.result import ChaseStatus
from repro.dependencies.parser import parse_td
from repro.relational.schema import Schema
from repro.workloads.generators import random_full_td, random_instance


@pytest.fixture
def schema():
    return Schema(["A", "B"])


class TestDependencyGraph:
    def test_transitivity_graph(self, schema):
        transitivity = parse_td("R(x, y) & R(y, z) -> R(x, z)", schema)
        facts = position_facts([transitivity])
        # x: antecedent pos 0 -> conclusion pos 0; z: pos 1 -> pos 1.
        # y reaches no conclusion, so these two are the only edges.
        assert facts.position_count == 2
        assert facts.regular_edge_count == 2
        assert facts.special_edge_count == 0

    def test_successor_graph_has_special_edge(self, schema):
        successor = parse_td("R(x, y) -> R(y, s)", schema)
        facts = position_facts([successor])
        # y occurs at antecedent pos 1 and in the conclusion; s is
        # existential at pos 1: special edge 1 => 1, a cycle on its own.
        assert facts.special_edge_count == 1
        assert facts.special_cycle == (PositionEdge(1, 1, True, "dependency"),)

    def test_empty_set(self):
        facts = position_facts([])
        assert (facts.position_count, facts.regular_edge_count) == (0, 0)
        assert facts.special_edge_count == 0
        assert facts.weakly_acyclic and facts.rank == 0


class TestWeakAcyclicity:
    def test_full_tds_always_weakly_acyclic(self, schema):
        """Full TDs have no existentials, hence no special edges."""
        for seed in range(10):
            td = random_full_td(seed=seed)
            assert position_facts([td]).weakly_acyclic

    def test_transitivity_weakly_acyclic(self, schema):
        transitivity = parse_td("R(x, y) & R(y, z) -> R(x, z)", schema)
        assert position_facts([transitivity]).weakly_acyclic

    def test_successor_not_weakly_acyclic(self, schema):
        successor = parse_td("R(x, y) -> R(y, s)", schema)
        assert not position_facts([successor]).weakly_acyclic

    def test_acyclic_embedded_td(self, schema):
        """Existentials without a feedback loop stay weakly acyclic."""
        # x flows 0 -> 0, fresh value lands only in position 1, and
        # nothing flows out of position 1: no cycle at all.
        td = parse_td("R(x, y) -> R(x, w)", schema)
        assert position_facts([td]).weakly_acyclic

    def test_two_tds_composing_into_special_cycle(self, schema):
        forward = parse_td("R(x, y) -> R(y, w)", schema)
        backward = parse_td("R(x, y) -> R(x, x)", schema)
        # forward alone: y (pos 1, in conclusion) => special to pos 1. Loop.
        assert not position_facts([forward, backward]).weakly_acyclic

    def test_witness_cycle_contains_special_edge(self, schema):
        successor = parse_td("R(x, y) -> R(y, s)", schema)
        cycle = position_facts([successor]).special_cycle
        assert cycle is not None
        assert any(edge.special for edge in cycle)


class TestGuarantee:
    """Weak acyclicity really does imply termination (spot checks)."""

    @pytest.mark.parametrize("seed", range(8))
    def test_weakly_acyclic_sets_terminate(self, seed):
        from repro.workloads.generators import random_td

        tds = [random_td(seed=seed + offset, arity=2) for offset in (0, 50)]
        if not position_facts(tds).weakly_acyclic:
            pytest.skip("generated set not weakly acyclic")
        instance = random_instance(seed=seed, arity=2)
        result = chase(instance, tds, budget=Budget(max_steps=5_000, max_seconds=30))
        assert result.status is ChaseStatus.TERMINATED


class TestReductionEncodings:
    """The theorem-consistent observation: encodings are never weakly
    acyclic — otherwise the chase would decide the word problem."""

    def test_positive_encoding_not_weakly_acyclic(self, positive_encoding):
        assert not position_facts(positive_encoding.dependencies).weakly_acyclic

    def test_negative_encoding_not_weakly_acyclic(self, negative_encoding):
        assert not position_facts(negative_encoding.dependencies).weakly_acyclic

    def test_report_describes_witness(self, negative_encoding):
        report = analyze(tuple(negative_encoding.dependencies))
        assert not report.weakly_acyclic
        assert report.special_edge_count > 0
        attributes = negative_encoding.reduction_schema.schema.attributes
        text = report.describe(attributes)
        assert "termination: NOT CERTIFIED" in text
        assert "witness cycle:" in text
        assert "=>" in text


class TestReport:
    def test_positive_report(self, schema):
        transitivity = parse_td("R(x, y) & R(y, z) -> R(x, z)", schema)
        report = analyze((transitivity,))
        assert report.weakly_acyclic
        assert report.special_edge_count == 0
        assert "termination: CERTIFIED" in report.describe()

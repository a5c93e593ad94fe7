"""Unit tests for the reference chase's triggers (tests.oracle.trigger)."""

import pytest

from repro.dependencies.parser import parse_td
from repro.dependencies.template import Variable
from repro.relational.instance import Instance
from repro.relational.schema import Schema
from repro.relational.values import Const

from tests.oracle.trigger import Trigger, iter_active_triggers, iter_triggers


@pytest.fixture
def schema():
    return Schema(["A", "B"])


@pytest.fixture
def transitivity(schema):
    return parse_td("R(x, y) & R(y, z) -> R(x, z)", schema)


@pytest.fixture
def path(schema):
    a, b, c = Const("a"), Const("b"), Const("c")
    return Instance(schema, [(a, b), (b, c)])


class TestIterTriggers:
    def test_all_antecedent_matches_found(self, transitivity, path):
        triggers = list(iter_triggers(path, transitivity))
        # Matches: (a,b)+(b,c). Also degenerate x=y=z? needs (v,v) rows: none.
        assert len(triggers) == 1

    def test_trigger_bindings_cover_universals(self, transitivity, path):
        (trigger,) = iter_triggers(path, transitivity)
        assert {name for name, __ in trigger.bindings} == {"x", "y", "z"}

    def test_trigger_assignment_round_trip(self, transitivity, path):
        (trigger,) = iter_triggers(path, transitivity)
        assignment = trigger.assignment()
        assert assignment[Variable("x")] == Const("a")
        assert assignment[Variable("z")] == Const("c")

    def test_no_triggers_in_empty_instance(self, transitivity, schema):
        assert list(iter_triggers(Instance(schema), transitivity)) == []

    def test_triggers_hashable_and_stable(self, transitivity, path):
        first = list(iter_triggers(path, transitivity))
        second = list(iter_triggers(path, transitivity))
        assert set(first) == set(second)


class TestActivity:
    def test_active_when_conclusion_missing(self, transitivity, path):
        (trigger,) = iter_triggers(path, transitivity)
        assert trigger.is_active(path)

    def test_inactive_when_conclusion_present(self, transitivity, path):
        path.add((Const("a"), Const("c")))
        (trigger,) = iter_triggers(path, transitivity)
        assert not trigger.is_active(path)

    def test_iter_active_filters(self, transitivity, path):
        assert len(list(iter_active_triggers(path, transitivity))) == 1
        path.add((Const("a"), Const("c")))
        assert list(iter_active_triggers(path, transitivity)) == []

    def test_existential_conclusion_activity(self, schema, path):
        successor = parse_td("R(x, y) -> R(y, z)", schema)
        triggers = list(iter_active_triggers(path, successor))
        # (a,b): b has successor c -> inactive. (b,c): c has none -> active.
        assert len(triggers) == 1
        assert dict(triggers[0].bindings)["x"] == Const("b")


class TestConclusionRows:
    def test_rows_with_existential_values(self, schema, path):
        successor = parse_td("R(x, y) -> R(y, z)", schema)
        trigger = Trigger.make(
            successor,
            {Variable("x"): Const("b"), Variable("y"): Const("c")},
        )
        rows = trigger.conclusion_rows({Variable("z"): Const("fresh")})
        assert rows == [(Const("c"), Const("fresh"))]

    def test_eid_conclusion_shares_witness(self, schema):
        from repro.dependencies.parser import parse_dependency

        eid = parse_dependency("R(x, y) -> R(w, x) & R(w, y)", schema)
        trigger = Trigger.make(
            eid, {Variable("x"): Const("a"), Variable("y"): Const("b")}
        )
        rows = trigger.conclusion_rows({Variable("w"): Const("shared")})
        assert rows == [
            (Const("shared"), Const("a")),
            (Const("shared"), Const("b")),
        ]

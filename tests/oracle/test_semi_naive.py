"""Tests for the reference chase's semi-naive variant and delta trigger
enumeration (tests.oracle.chase, tests.oracle.trigger).

``chase`` here is the reference chase; ``STANDARD`` is its restricted
discipline."""

import pytest

from repro.chase.budget import Budget
from repro.chase.result import ChaseStatus
from repro.dependencies.parser import parse_td
from repro.relational.core import homomorphically_equivalent
from repro.relational.instance import Instance
from repro.relational.schema import Schema
from repro.relational.values import Const
from repro.workloads.generators import random_full_td, random_instance, transitivity_family

from tests.oracle.chase import ChaseVariant, chase
from tests.oracle.trigger import iter_triggers, iter_triggers_touching


@pytest.fixture
def schema():
    return Schema(["A", "B"])


@pytest.fixture
def path(schema):
    nodes = [Const(f"n{i}") for i in range(5)]
    return Instance(schema, [(nodes[i], nodes[i + 1]) for i in range(4)])


@pytest.fixture
def transitivity(schema):
    return parse_td("R(x, y) & R(y, z) -> R(x, z)", schema)


class TestDeltaTriggers:
    def test_full_delta_equals_naive_enumeration(self, path, transitivity):
        naive = {t.bindings for t in iter_triggers(path, transitivity)}
        seeded = {
            t.bindings
            for t in iter_triggers_touching(path, transitivity, set(path.rows))
        }
        assert naive == seeded

    def test_small_delta_restricts(self, path, transitivity):
        one_row = {next(iter(path.rows))}
        seeded = list(iter_triggers_touching(path, transitivity, one_row))
        naive = list(iter_triggers(path, transitivity))
        assert len(seeded) <= len(naive)
        # Every seeded trigger uses the delta row in some atom.
        for trigger in seeded:
            assignment = trigger.assignment()
            images = {
                tuple(assignment[v] for v in atom)
                for atom in transitivity.antecedents
            }
            assert images & one_row

    def test_empty_delta_yields_nothing(self, path, transitivity):
        assert list(iter_triggers_touching(path, transitivity, set())) == []

    def test_no_duplicate_triggers(self, schema, transitivity):
        # A loop row matches both atoms of transitivity: dedup required.
        a = Const("a")
        loop = Instance(schema, [(a, a)])
        triggers = list(iter_triggers_touching(loop, transitivity, {(a, a)}))
        assert len(triggers) == 1


class TestSemiNaiveChase:
    def test_same_fixpoint_as_standard_full_tds(self, path, transitivity):
        standard = chase(path, [transitivity])
        semi = chase(path, [transitivity], variant=ChaseVariant.SEMI_NAIVE)
        assert semi.status is ChaseStatus.TERMINATED
        assert semi.instance.rows == standard.instance.rows

    def test_satisfies_dependencies_at_fixpoint(self, path, transitivity):
        result = chase(path, [transitivity], variant=ChaseVariant.SEMI_NAIVE)
        assert transitivity.holds_in(result.instance)

    def test_goal_respected(self, path, transitivity):
        target = (Const("n0"), Const("n2"))
        result = chase(
            path,
            [transitivity],
            variant=ChaseVariant.SEMI_NAIVE,
            goal=lambda inst: target in inst,
        )
        assert result.status is ChaseStatus.GOAL_REACHED

    def test_budget_respected(self, schema):
        successor = parse_td("R(x, y) -> R(y, z)", schema)
        start = Instance(schema, [(Const("a"), Const("b"))])
        result = chase(
            start,
            [successor],
            variant=ChaseVariant.SEMI_NAIVE,
            budget=Budget(max_steps=5),
        )
        assert result.status is ChaseStatus.BUDGET_EXHAUSTED
        assert result.step_count == 5

    def test_embedded_equivalent_to_standard(self, schema):
        deps = [
            parse_td("R(x, y) -> R(y, x)", schema),
            parse_td("R(x, y) & R(y, z) -> R(x, z)", schema),
        ]
        start = Instance(schema, [(Const("a"), Const("b"))])
        standard = chase(start, deps)
        semi = chase(start, deps, variant=ChaseVariant.SEMI_NAIVE)
        assert standard.status is ChaseStatus.TERMINATED
        assert semi.status is ChaseStatus.TERMINATED
        assert semi.instance.rows == standard.instance.rows

    @pytest.mark.parametrize("seed", range(6))
    def test_random_full_tds_agree_with_standard(self, seed):
        td = random_full_td(seed=seed)
        instance = random_instance(seed=seed)
        standard = chase(instance, [td])
        semi = chase(instance, [td], variant=ChaseVariant.SEMI_NAIVE)
        assert standard.status is ChaseStatus.TERMINATED
        assert semi.status is ChaseStatus.TERMINATED
        # Full TDs invent no nulls: the fixpoints are literally equal.
        assert semi.instance.rows == standard.instance.rows

    def test_transitivity_family_equivalence(self):
        deps, target = transitivity_family(6)
        start, __ = target.freeze()
        standard = chase(start, deps)
        semi = chase(start, deps, variant=ChaseVariant.SEMI_NAIVE)
        assert semi.instance.rows == standard.instance.rows

    def test_embedded_results_homomorphically_equivalent(self, schema):
        """With nulls the row sets differ by labels only."""
        dep = parse_td("R(x, y) -> R(y, w)", schema)
        square = Instance(
            schema, [(Const("a"), Const("b")), (Const("b"), Const("a"))]
        )
        standard = chase(square, [dep])
        semi = chase(square, [dep], variant=ChaseVariant.SEMI_NAIVE)
        assert standard.status is ChaseStatus.TERMINATED
        assert semi.status is ChaseStatus.TERMINATED
        assert homomorphically_equivalent(standard.instance, semi.instance)

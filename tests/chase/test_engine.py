"""Unit tests for repro.chase.engine."""

import pytest

from repro.chase.budget import Budget
from repro.chase.engine import apply_step, chase, replay
from repro.chase.implication import ConclusionGoal
from repro.chase.result import ChaseStatus, ChaseStep
from repro.dependencies.parser import parse_td
from repro.dependencies.template import Variable
from repro.errors import VerificationError
from repro.relational.instance import Instance
from repro.relational.schema import Schema
from repro.relational.values import Const, is_null

from tests.oracle import chase as oracle
from tests.oracle.chase import ChaseVariant


@pytest.fixture
def schema():
    return Schema(["A", "B"])


@pytest.fixture
def path(schema):
    a, b, c = Const("a"), Const("b"), Const("c")
    return Instance(schema, [(a, b), (b, c)])


@pytest.fixture
def transitivity(schema):
    return parse_td("R(x, y) & R(y, z) -> R(x, z)", schema)


class TestStandardChase:
    def test_full_td_reaches_fixpoint(self, path, transitivity):
        result = chase(path, [transitivity])
        assert result.status is ChaseStatus.TERMINATED
        assert (Const("a"), Const("c")) in result.instance

    def test_fixpoint_satisfies_dependencies(self, path, transitivity):
        result = chase(path, [transitivity])
        assert transitivity.holds_in(result.instance)

    def test_input_not_mutated_by_default(self, path, transitivity):
        chase(path, [transitivity])
        assert len(path) == 2

    def test_inplace_mutates(self, path, transitivity):
        result = chase(path, [transitivity], inplace=True)
        assert result.instance is path
        assert len(path) == 3

    def test_no_dependencies_terminates_immediately(self, path):
        result = chase(path, [])
        assert result.status is ChaseStatus.TERMINATED
        assert result.step_count == 0

    def test_satisfied_dependency_fires_nothing(self, path, transitivity):
        path.add((Const("a"), Const("c")))
        result = chase(path, [transitivity])
        assert result.step_count == 0

    def test_embedded_td_invents_nulls(self, schema):
        successor = parse_td("R(x, y) -> R(y, z)", schema)
        start = Instance(schema, [(Const("a"), Const("b"))])
        result = chase(start, [successor], budget=Budget(max_steps=5))
        assert result.status is ChaseStatus.BUDGET_EXHAUSTED
        nulls = [v for v in result.instance.active_domain() if is_null(v)]
        assert len(nulls) == 5

    def test_trace_records_steps(self, path, transitivity):
        result = chase(path, [transitivity])
        assert len(result.steps) == 1
        step = result.steps[0]
        assert step.dependency is transitivity
        assert step.added_rows == ((Const("a"), Const("c")),)

    def test_trace_disabled(self, path, transitivity):
        result = chase(path, [transitivity], record_trace=False)
        assert result.steps == []
        assert result.step_count == 1  # stats still count


def row_goal(schema, row):
    """The goal "``row`` is present", as the implication goal the chase
    compiles: the conclusion of ``R(x, y) -> R(x, y)`` with x, y frozen
    to the row's values."""
    target = parse_td("R(x, y) -> R(x, y)", schema)
    return ConclusionGoal(target, {Variable("x"): row[0], Variable("y"): row[1]})


class TestGoal:
    def test_goal_stops_early(self, schema, transitivity):
        # Long path: goal reached before full closure.
        nodes = [Const(f"n{i}") for i in range(8)]
        long_path = Instance(schema, [(nodes[i], nodes[i + 1]) for i in range(7)])
        target = (nodes[0], nodes[2])
        result = chase(long_path, [transitivity], goal=row_goal(schema, target))
        assert result.status is ChaseStatus.GOAL_REACHED
        assert target in result.instance

    def test_goal_true_initially(self, schema, path, transitivity):
        goal = row_goal(schema, (Const("a"), Const("b")))
        result = chase(path, [transitivity], goal=goal)
        assert result.status is ChaseStatus.GOAL_REACHED
        assert result.step_count == 0

    def test_unreachable_goal_terminates(self, schema, path, transitivity):
        goal = row_goal(schema, (Const("c"), Const("a")))
        result = chase(path, [transitivity], goal=goal)
        assert result.status is ChaseStatus.TERMINATED


class TestBudgets:
    def test_step_budget(self, schema):
        successor = parse_td("R(x, y) -> R(y, z)", schema)
        start = Instance(schema, [(Const("a"), Const("b"))])
        result = chase(start, [successor], budget=Budget(max_steps=3))
        assert result.status is ChaseStatus.BUDGET_EXHAUSTED
        assert result.step_count == 3

    def test_row_budget(self, schema):
        successor = parse_td("R(x, y) -> R(y, z)", schema)
        start = Instance(schema, [(Const("a"), Const("b"))])
        result = chase(start, [successor], budget=Budget(max_rows=4))
        assert result.status is ChaseStatus.BUDGET_EXHAUSTED
        assert len(result.instance) == 4


class TestObliviousChase:
    """The oblivious chase lives in tests/oracle; the production
    (restricted) chase is compared with it."""

    def test_oblivious_fires_satisfied_triggers(self, path, transitivity):
        path.add((Const("a"), Const("c")))  # standard chase would be done
        result = oracle.chase(
            path, [transitivity], variant=ChaseVariant.OBLIVIOUS,
            budget=Budget(max_steps=50),
        )
        assert result.step_count >= 1

    def test_oblivious_never_refires_same_trigger(self, path, transitivity):
        result = oracle.chase(
            path,
            [transitivity],
            variant=ChaseVariant.OBLIVIOUS,
            budget=Budget(max_steps=500),
        )
        assert result.status is ChaseStatus.TERMINATED
        seen = {(id(step.dependency), step.bindings) for step in result.steps}
        assert len(seen) == len(result.steps)

    def test_oblivious_at_least_as_large_as_standard(self, path, transitivity):
        standard = chase(path, [transitivity])
        oblivious = oracle.chase(
            path, [transitivity], variant=ChaseVariant.OBLIVIOUS,
            budget=Budget(max_steps=500),
        )
        assert len(oblivious.instance) >= len(standard.instance)


class TestReplay:
    def test_replay_reproduces_result(self, path, transitivity):
        result = chase(path, [transitivity])
        replayed = replay(path, result.steps)
        assert replayed.rows == result.instance.rows

    def test_apply_step_verifies_trigger(self, path, transitivity):
        bogus = ChaseStep(
            dependency=transitivity,
            bindings=(("x", Const("zzz")), ("y", Const("b")), ("z", Const("c"))),
            added_rows=((Const("zzz"), Const("c")),),
        )
        with pytest.raises(VerificationError):
            apply_step(path, bogus)

    def test_apply_step_verifies_added_rows(self, path, transitivity):
        bogus = ChaseStep(
            dependency=transitivity,
            bindings=(("x", Const("a")), ("y", Const("b")), ("z", Const("c"))),
            added_rows=((Const("a"), Const("WRONG")),),
        )
        with pytest.raises(VerificationError):
            apply_step(path, bogus)

    def test_apply_step_verifies_row_count(self, path, transitivity):
        bogus = ChaseStep(
            dependency=transitivity,
            bindings=(("x", Const("a")), ("y", Const("b")), ("z", Const("c"))),
            added_rows=(),
        )
        with pytest.raises(VerificationError):
            apply_step(path, bogus)

    def test_forged_existential_witness_is_rejected(self, path, schema):
        """A crafted step that binds an existential to an existing value
        must not verify — it would 'prove' facts the dependency does not
        entail (e.g. a tampered cached certificate)."""
        invent = parse_td("R(x, y) -> R(x, z)", schema)  # z existential
        forged = ChaseStep(
            dependency=invent,
            bindings=(("x", Const("a")), ("y", Const("b"))),
            added_rows=((Const("a"), Const("a")),),  # z := a, not a fresh null
        )
        with pytest.raises(VerificationError):
            apply_step(path, forged)

    def test_reused_null_witness_is_rejected(self, path, schema):
        from repro.relational.values import LabeledNull

        stale = LabeledNull(7)
        path.add((Const("c"), stale))  # the null already lives in the instance
        invent = parse_td("R(x, y) -> R(x, z)", schema)
        forged = ChaseStep(
            dependency=invent,
            bindings=(("x", Const("a")), ("y", Const("b"))),
            added_rows=((Const("a"), stale),),
        )
        with pytest.raises(VerificationError):
            apply_step(path, forged)

    def test_identified_existentials_are_rejected(self, path, schema):
        from repro.relational.values import LabeledNull

        invent = parse_td("R(x, y) -> R(u, v)", schema)  # u, v both existential
        shared = LabeledNull(9)
        forged = ChaseStep(
            dependency=invent,
            bindings=(("x", Const("a")), ("y", Const("b"))),
            added_rows=((shared, shared),),  # one null serving two existentials
        )
        with pytest.raises(VerificationError):
            apply_step(path, forged)

    def test_existential_binding_smuggled_into_bindings_is_rejected(
        self, path, schema
    ):
        """Pre-binding the existential in step.bindings must not bypass
        the fresh-witness checks."""
        invent = parse_td("R(x, y) -> R(x, z)", schema)
        forged = ChaseStep(
            dependency=invent,
            bindings=(
                ("x", Const("a")),
                ("y", Const("b")),
                ("z", Const("evil")),  # smuggled existential binding
            ),
            added_rows=((Const("a"), Const("evil")),),
        )
        with pytest.raises(VerificationError):
            apply_step(path, forged)

    def test_honest_existential_steps_still_verify(self, schema):
        invent = parse_td("R(x, y) -> R(x, z)", schema)
        start = Instance(schema, [(Const("a"), Const("b"))])
        result = chase(start, [invent], budget=Budget(max_steps=3))
        replayed = replay(start, result.steps)  # verifies each step
        assert replayed.rows == result.instance.rows

    def test_apply_step_unverified_trusts_caller(self, path, transitivity):
        rogue = ChaseStep(
            dependency=transitivity,
            bindings=(),
            added_rows=((Const("u"), Const("v")),),
        )
        apply_step(path, rogue, verify=False)
        assert (Const("u"), Const("v")) in path


class TestChaseSemantics:
    def test_terminated_chase_is_universal_model(self, schema):
        """Terminated chase result satisfies every dependency."""
        deps = [
            parse_td("R(x, y) & R(y, z) -> R(x, z)", schema),
            parse_td("R(x, y) -> R(y, x)", schema),
        ]
        start = Instance(schema, [(Const("a"), Const("b"))])
        result = chase(start, deps)
        assert result.status is ChaseStatus.TERMINATED
        for dependency in deps:
            assert dependency.holds_in(result.instance)

    def test_eid_chase_shares_existential_witness(self, schema):
        from repro.dependencies.parser import parse_dependency

        eid = parse_dependency("R(x, y) -> R(w, x) & R(w, y)", schema)
        start = Instance(schema, [(Const("a"), Const("b"))])
        result = chase(start, [eid], budget=Budget(max_steps=10))
        first_step = result.steps[0]
        assert len(first_step.added_rows) == 2
        witness_left = first_step.added_rows[0][0]
        witness_right = first_step.added_rows[1][0]
        assert witness_left == witness_right  # one null serves both atoms

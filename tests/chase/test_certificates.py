"""Tests for certificate slicing and rendering (repro.chase.certificates)."""

import pytest

from repro.chase.budget import Budget
from repro.chase.certificates import (
    explain_outcome,
    explain_trace,
    goal_rows_of_outcome,
    minimize_proof,
    minimize_trace,
)
from repro.chase.engine import replay
from repro.chase.implication import InferenceStatus, conclusion_satisfied, implies
from repro.dependencies.parser import parse_td
from repro.relational.schema import Schema


@pytest.fixture
def schema():
    return Schema(["A", "B"])


@pytest.fixture
def transitivity(schema):
    return parse_td("R(x, y) & R(y, z) -> R(x, z)", schema)


@pytest.fixture
def proved_outcome(schema, transitivity):
    target = parse_td(
        "R(a, b) & R(b, c) & R(c, d) & R(d, e) -> R(a, e)", schema
    )
    outcome = implies([transitivity], target)
    assert outcome.status is InferenceStatus.PROVED
    return outcome


class TestMinimizeTrace:
    def test_sliced_trace_still_proves(self, proved_outcome):
        sliced = minimize_proof(proved_outcome)
        assert sliced is not None
        target = proved_outcome.target
        start, frozen = target.freeze()
        final = replay(start, sliced)  # verifies each step
        assert conclusion_satisfied(final, target, frozen)

    def test_sliced_no_longer_than_original(self, proved_outcome):
        sliced = minimize_proof(proved_outcome)
        full = proved_outcome.chase_result.steps
        assert len(sliced) <= len(full)

    def test_slice_keeps_producers_of_unlisted_conclusion_images(self, schema):
        """An EID step whose conjunct was already present must keep the
        step that produced it: honest ``added_rows`` omit the row, but
        verified replay still requires it to exist."""
        from repro.chase.engine import chase
        from repro.chase.implication import ConclusionGoal
        from repro.dependencies.template import Variable
        from repro.relational.instance import Instance
        from repro.relational.values import Const

        from repro.dependencies.parser import parse_dependency

        loop = parse_dependency("R(x, y) -> R(x, x)", schema)
        swap_and_loop = parse_dependency("R(x, y) -> R(y, x) & R(x, x)", schema)
        a, b = Const("a"), Const("b")
        start = Instance(schema, [(a, b)])
        goal_row = (b, a)
        # Stop once ``goal_row`` is present: the conclusion of
        # R(x, y) -> R(x, y) with x, y frozen to its values.
        goal = ConclusionGoal(
            parse_dependency("R(x, y) -> R(x, y)", schema),
            {Variable("x"): b, Variable("y"): a},
        )
        result = chase(start, [loop, swap_and_loop], goal=goal)
        sliced = minimize_trace(result.steps, {goal_row})
        final = replay(start, sliced, verify=True)  # must not raise
        assert goal_row in final

    def test_irrelevant_steps_dropped(self, schema, transitivity):
        """A second, unrelated dependency's firings get sliced away."""
        noise = parse_td("R(x, y) -> R(y, x)", schema)
        target = parse_td("R(a, b) & R(b, c) & R(c, d) -> R(a, d)", schema)
        outcome = implies([noise, transitivity], target)
        assert outcome.status is InferenceStatus.PROVED
        sliced = minimize_proof(outcome)
        # Symmetry rows never feed the transitive goal on a simple path...
        # they may appear if transitivity consumed them; at minimum the
        # sliced proof replays and is no longer than the original.
        start, frozen = target.freeze()
        final = replay(start, sliced)
        assert conclusion_satisfied(final, target, frozen)
        assert len(sliced) <= len(outcome.chase_result.steps)

    def test_goal_in_start_gives_empty_slice(self, schema, transitivity):
        target = parse_td("R(a, b) -> R(a, b)", schema)
        outcome = implies([transitivity], target)
        assert minimize_proof(outcome) == []

    def test_minimize_trace_direct(self, proved_outcome):
        goal = goal_rows_of_outcome(proved_outcome)
        assert goal is not None
        sliced = minimize_trace(proved_outcome.chase_result.steps, goal)
        produced = {row for step in sliced for row in step.added_rows}
        assert goal <= produced or not sliced

    def test_not_a_proof_returns_none(self, schema, transitivity):
        symmetry = parse_td("R(x, y) -> R(y, x)", schema)
        outcome = implies([transitivity], symmetry)
        assert minimize_proof(outcome) is None


class TestReductionProofSlicing:
    def test_guided_proofs_are_already_lean(self, positive_encoding):
        """The direction-(A) guided proof has little to slice away."""
        from repro.chase.implication import implies as chase_implies

        outcome = chase_implies(
            positive_encoding.dependencies,
            positive_encoding.d0,
            budget=Budget(max_steps=4_000, max_seconds=60),
        )
        assert outcome.status is InferenceStatus.PROVED
        sliced = minimize_proof(outcome)
        target = positive_encoding.d0
        start, frozen = target.freeze()
        final = replay(start, sliced)
        assert conclusion_satisfied(final, target, frozen)


class TestExplain:
    def test_explain_empty_trace(self):
        assert "empty trace" in explain_trace([])

    def test_explain_trace_numbers_steps(self, proved_outcome):
        text = explain_trace(proved_outcome.chase_result.steps)
        assert "  1. by" in text
        assert "add (" in text

    def test_explain_proved(self, proved_outcome):
        text = explain_outcome(proved_outcome)
        assert "PROVED" in text
        assert "essential step(s)" in text

    def test_explain_disproved(self, schema, transitivity):
        symmetry = parse_td("R(x, y) -> R(y, x)", schema)
        outcome = implies([transitivity], symmetry)
        text = explain_outcome(outcome)
        assert "DISPROVED" in text
        assert "counterexample" in text

    def test_explain_unknown(self, schema):
        successor = parse_td("R(x, y) -> R(y, s)", schema)
        predecessor = parse_td("R(x, y) -> R(p, x)", schema)
        outcome = implies([successor], predecessor, budget=Budget.small())
        text = explain_outcome(outcome)
        assert "UNKNOWN" in text


class TestExplainDegradesWithoutCertificate:
    """Regression: a PROVED outcome `minimize_proof` cannot slice used to
    hit `assert trace is not None` — a crash under `python` and silently
    skipped under `python -O`. Rendering must degrade, not fail."""

    def test_proved_without_chase_result(self, proved_outcome):
        from repro.chase.implication import InferenceOutcome

        bare = InferenceOutcome(
            status=InferenceStatus.PROVED, target=proved_outcome.target
        )
        text = explain_outcome(bare)
        assert "PROVED" in text
        assert "could not be minimized" in text
        assert "no replayable chase trace" in text

    def test_proved_without_frozen_assignment_shows_full_trace(
        self, proved_outcome
    ):
        from dataclasses import replace

        stripped = replace(proved_outcome, frozen_assignment=None)
        text = explain_outcome(stripped)
        assert "PROVED" in text
        assert "could not be minimized" in text
        # Degrades to the unsliced derivation, still numbered.
        assert "  1. by" in text

    def test_intact_outcome_unaffected(self, proved_outcome):
        text = explain_outcome(proved_outcome)
        assert "essential step(s)" in text
        assert "could not be minimized" not in text

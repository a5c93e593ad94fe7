"""Unit tests for repro.chase.implication."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.chase.budget import Budget
from repro.chase.implication import (
    ConclusionGoal,
    InferenceStatus,
    conclusion_satisfied,
    implies,
    implies_all,
)
from repro.chase.modelcheck import satisfies_all
from repro.dependencies.parser import parse_td
from repro.relational.schema import Schema
from repro.relational.values import LabeledNull


@pytest.fixture
def schema():
    return Schema(["A", "B"])


class TestProved:
    def test_transitivity_implies_longer_paths(self, schema):
        transitivity = parse_td("R(x, y) & R(y, z) -> R(x, z)", schema)
        target = parse_td("R(x, y) & R(y, z) & R(z, w) -> R(x, w)", schema)
        outcome = implies([transitivity], target)
        assert outcome.status is InferenceStatus.PROVED
        assert outcome.proved

    def test_dependency_implies_itself(self, schema):
        td = parse_td("R(x, y) -> R(y, z)", schema)
        renamed = parse_td("R(u, v) -> R(v, w)", schema)
        assert implies([td], renamed).status is InferenceStatus.PROVED

    def test_trivial_target_needs_no_dependencies(self, schema):
        trivial = parse_td("R(x, y) -> R(x, y)", schema)
        outcome = implies([], trivial)
        assert outcome.status is InferenceStatus.PROVED
        assert outcome.chase_result.step_count == 0

    def test_proof_trace_replayable(self, schema):
        from repro.chase.engine import replay

        transitivity = parse_td("R(x, y) & R(y, z) -> R(x, z)", schema)
        target = parse_td("R(x, y) & R(y, z) & R(z, w) -> R(x, w)", schema)
        outcome = implies([transitivity], target)
        start, frozen = target.freeze()
        final = replay(start, outcome.chase_result.steps)
        assert conclusion_satisfied(final, target, frozen)

    def test_embedded_target_with_existential_conclusion(self, schema):
        successor = parse_td("R(x, y) -> R(y, z)", schema)
        weaker = parse_td("R(x, y) & R(y, w) -> R(w, v)", schema)
        assert implies([successor], weaker).status is InferenceStatus.PROVED


class TestHashSeedIndependence:
    def test_chase_is_a_function_of_its_input_not_of_the_hash_seed(self):
        """Frozen constants hash strings, so a row set kept in hash order
        would make the kernel seed, and so fire, in a seed-dependent
        order. The same query must fire the same steps under any seed."""
        code = (
            "from repro.chase.implication import implies\n"
            "from repro.workloads.generators import transitivity_family\n"
            "outcome = implies(*transitivity_family(8))\n"
            "result = outcome.chase_result\n"
            "print(outcome.status.value, result.step_count)\n"
            "for step in result.steps:\n"
            "    print(step.bindings)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        runs = {}
        for seed in ("1", "2", "3", "4"):
            env["PYTHONHASHSEED"] = seed
            runs[seed] = subprocess.run(
                [sys.executable, "-c", code],
                env=env,
                capture_output=True,
                check=True,
                text=True,
            ).stdout
        assert runs["1"].startswith("proved ")
        assert all(output == runs["1"] for output in runs.values()), runs


class TestConclusionGoal:
    @pytest.mark.parametrize(
        "text, extra, expected",
        [
            ("R(x, y) & R(y, z) -> R(x, z)", [], False),
            ("R(x, y) & R(y, z) -> R(x, z)", [("x", "z")], True),
            ("R(x, y) & R(y, z) -> R(x, z)", [("z", "x")], False),
            ("R(x, y) -> R(y, w)", [], False),
            ("R(x, y) -> R(y, w)", [("y", None)], True),
            ("R(x, y) -> R(y, w)", [("x", None)], False),
        ],
    )
    def test_call_agrees_with_conclusion_satisfied(
        self, schema, text, extra, expected
    ):
        """Calling the goal object is the one-shot compiled check, on
        hits and misses alike (the kernel compiles the same check into
        its own probe)."""
        target = parse_td(text, schema)
        instance, frozen = target.freeze()
        by_name = {variable.name: value for variable, value in frozen.items()}
        for left, right in extra:
            instance.add(
                (by_name[left], by_name[right] if right else LabeledNull(7))
            )
        goal = ConclusionGoal(target, frozen)
        assert conclusion_satisfied(instance, target, frozen) is expected
        assert goal(instance) is expected


class TestDisproved:
    def test_counterexample_produced(self, schema):
        transitivity = parse_td("R(x, y) & R(y, z) -> R(x, z)", schema)
        symmetry = parse_td("R(x, y) -> R(y, x)", schema)
        outcome = implies([transitivity], symmetry)
        assert outcome.status is InferenceStatus.DISPROVED
        assert outcome.disproved
        counterexample = outcome.counterexample
        assert counterexample is not None
        assert satisfies_all(counterexample, [transitivity])
        assert symmetry.find_violation(counterexample) is not None

    def test_empty_dependency_set_disproves_nontrivial(self, schema):
        target = parse_td("R(x, y) -> R(y, x)", schema)
        assert implies([], target).status is InferenceStatus.DISPROVED


class TestUnknown:
    def test_divergent_chase_reports_unknown(self, schema):
        successor = parse_td("R(x, y) -> R(y, z)", schema)
        predecessor = parse_td("R(x, y) -> R(z, x)", schema)
        outcome = implies([successor], predecessor, budget=Budget.small())
        assert outcome.status is InferenceStatus.UNKNOWN
        assert not outcome.proved and not outcome.disproved


class TestBatch:
    def test_implies_all(self, schema):
        transitivity = parse_td("R(x, y) & R(y, z) -> R(x, z)", schema)
        targets = [
            parse_td("R(x, y) & R(y, z) & R(z, w) -> R(x, w)", schema),
            parse_td("R(x, y) -> R(y, x)", schema),
        ]
        outcomes = implies_all([transitivity], targets)
        assert [o.status for o in outcomes] == [
            InferenceStatus.PROVED,
            InferenceStatus.DISPROVED,
        ]


class TestDescribe:
    def test_describe_mentions_status(self, schema):
        td = parse_td("R(x, y) -> R(x, y)", schema)
        assert "proved" in implies([], td).describe()

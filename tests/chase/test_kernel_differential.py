"""Randomized differential tests: compiled kernel vs legacy engine.

The compiled kernel (:mod:`repro.chase.plan`) must be *semantically
indistinguishable* from the generic engine kept in
:mod:`tests.oracle.chase` (the "legacy" side, run under both its
STANDARD and SEMI_NAIVE disciplines): identical
:class:`ChaseStatus` outcomes, identical implication verdicts,
``replay()``-valid traces, and final instances that agree up to null
renaming. Step *order* may differ (it already differs between hash-seed
runs of the legacy engine), so the comparisons here are semantic:

* full dependency sets have a unique fixpoint — final row sets must be
  literally equal across every run;
* weakly acyclic embedded sets terminate under every order, and all
  terminating chase results of one input have isomorphic *cores* — the
  canonical "equal up to null renaming" witness;
* every recorded trace must replay, with verification on, to exactly
  the instance the run reported;
* implication outcomes (the service hot path) must agree verdict for
  verdict, and their certificates must check.
"""

import pytest

from repro.chase.budget import Budget
from repro.chase.engine import chase, replay
from repro.chase.implication import ConclusionGoal, conclusion_satisfied, implies
from repro.chase.result import ChaseStatus
from repro.relational.core import core_of, homomorphically_equivalent
from repro.workloads.generators import (
    inference_workload,
    random_full_td,
    random_instance,
    weakly_acyclic_dependencies,
)

from tests.oracle import chase as oracle
from tests.oracle.chase import ChaseVariant

#: Every test runs under both join backends (the native leg skips
#: visibly when the extension is not built): the same seeds that hold
#: compiled ≡ legacy also hold native ≡ python.
pytestmark = pytest.mark.usefixtures("join_backend")

#: The reference disciplines the production chase is compared with.
VARIANTS = (ChaseVariant.STANDARD, ChaseVariant.SEMI_NAIVE)


def _all_runs(instance, dependencies, **kwargs):
    """Chase under the production kernel and every reference discipline.

    Returns ``{("compiled", None): result, ("legacy", variant): result}``.
    """
    runs = {("compiled", None): chase(instance, dependencies, **kwargs)}
    for variant in VARIANTS:
        runs[("legacy", variant)] = oracle.chase(
            instance, dependencies, variant=variant, **kwargs
        )
    return runs


def _assert_replay_valid(start, result):
    """The trace, replayed with verification on, reproduces the result."""
    replayed = replay(start, result.steps, verify=True)
    assert replayed.rows == result.instance.rows


def _assert_equal_up_to_null_renaming(left, right):
    """Terminating chase results agree after core-canonicalization.

    Cores of homomorphically equivalent instances are isomorphic; for
    instances without nulls this degenerates to literal equality.
    """
    left_core, right_core = core_of(left), core_of(right)
    assert len(left_core) == len(right_core)
    assert homomorphically_equivalent(left_core, right_core)


class TestFullDependencySets:
    """No existentials: unique fixpoint, so every run must match exactly."""

    @pytest.mark.parametrize("seed", range(8))
    def test_identical_fixpoints_and_valid_traces(self, seed):
        dependencies = [
            random_full_td(seed=seed, antecedents=2 + seed % 2),
            random_full_td(seed=seed + 1_000, antecedents=2),
        ]
        start = random_instance(seed=seed, rows=10)
        results = _all_runs(start, dependencies)
        reference = results[("legacy", ChaseVariant.STANDARD)]
        assert reference.status is ChaseStatus.TERMINATED
        for (kernel, variant), result in results.items():
            assert result.status is ChaseStatus.TERMINATED, (kernel, variant)
            assert result.instance.rows == reference.instance.rows, (kernel, variant)
            _assert_replay_valid(start, result)


class TestWeaklyAcyclicEmbeddedSets:
    """Existential conclusions, but termination holds for every order."""

    @pytest.mark.parametrize("seed", range(8))
    def test_agreement_up_to_null_renaming(self, seed):
        dependencies = weakly_acyclic_dependencies(
            seed=seed, include_eids=(seed % 2 == 1)
        )
        start = random_instance(seed=seed, rows=8)
        results = _all_runs(start, dependencies)
        reference = results[("legacy", ChaseVariant.STANDARD)]
        assert reference.status is ChaseStatus.TERMINATED
        for (kernel, variant), result in results.items():
            assert result.status is ChaseStatus.TERMINATED, (kernel, variant)
            _assert_replay_valid(start, result)
            _assert_equal_up_to_null_renaming(
                result.instance, reference.instance
            )
            for dependency in dependencies:
                assert dependency.holds_in(result.instance), (kernel, variant)


class TestBudgetAndGoalParity:
    def test_forced_divergence_exhausts_identically(self):
        from repro.dependencies.parser import parse_td
        from repro.relational.instance import Instance
        from repro.relational.schema import Schema
        from repro.relational.values import Const

        schema = Schema(["A", "B"])
        successor = parse_td("R(x, y) -> R(y, z)", schema)
        start = Instance(schema, [(Const("a"), Const("b"))])
        for budget_steps in (1, 5, 9):
            results = _all_runs(
                start, [successor], budget=Budget(max_steps=budget_steps)
            )
            for key, result in results.items():
                # Every firing is forced (one chain), so even the step
                # counts must agree, not just the statuses.
                assert result.status is ChaseStatus.BUDGET_EXHAUSTED, key
                assert result.step_count == budget_steps, key
                _assert_replay_valid(start, result)

    def test_goal_reached_on_every_kernel(self):
        from repro.workloads.generators import transitivity_family

        dependencies, target = transitivity_family(6)
        start, frozen = target.freeze()
        results = _all_runs(
            start,
            dependencies,
            goal=ConclusionGoal(target, frozen),
        )
        for key, result in results.items():
            assert result.status is ChaseStatus.GOAL_REACHED, key


class TestImplicationDifferential:
    """The service hot path: verdicts must agree query for query."""

    @pytest.fixture(scope="class")
    def workload(self):
        return inference_workload(queries=40, duplicate_fraction=0.3, seed=7)

    def test_verdicts_agree_and_certificates_check(self, workload):
        dependencies, targets = workload
        budget = Budget(max_steps=2_000)
        for target in targets:
            outcomes = {
                ("compiled", None): implies(dependencies, target, budget=budget)
            }
            for variant in VARIANTS:
                outcomes[("legacy", variant)] = oracle.implies(
                    dependencies, target, budget=budget, variant=variant
                )
            reference = outcomes[("legacy", ChaseVariant.STANDARD)]
            for key, outcome in outcomes.items():
                assert outcome.status is reference.status, (key, target)
                if outcome.proved:
                    start, frozen = target.freeze()
                    final = replay(
                        start, outcome.chase_result.steps, verify=True
                    )
                    assert conclusion_satisfied(final, target, frozen), key
                if outcome.disproved:
                    counterexample = outcome.counterexample
                    for dependency in dependencies:
                        assert dependency.holds_in(counterexample), key
                    assert target.find_violation(counterexample) is not None, key

"""Randomized differential tests: compiled model checker vs legacy search.

The compiled checker (:mod:`repro.chase.checkplan`) must be semantically
indistinguishable from the generic homomorphism search kept in
:mod:`tests.oracle.modelcheck` (the "legacy" side below):
identical ``holds_in`` verdicts on every instance, and violation
witnesses that are *equivalent* — a witness is a complete assignment of
the universal variables mapping every antecedent into the instance with
no conclusion extension. The two checkers may surface *different*
witnesses for the same violated dependency (enumeration order differs,
exactly as it does between hash-seed runs of the legacy search), so the
comparisons here are semantic: verdict equality, witness validity, and
the ``all_violations == [] iff satisfies_all`` contract.
"""

from types import SimpleNamespace

import pytest

from repro.chase import modelcheck
from repro.chase.budget import Budget
from repro.chase.checkplan import ModelChecker
from repro.chase.engine import chase
from repro.chase.finite_models import search_exhaustive, search_random
from repro.chase.implication import implies
from repro.dependencies.parser import parse_td
from repro.dependencies.template import is_variable
from repro.relational.homomorphism import is_homomorphism
from repro.relational.schema import Schema
from repro.workloads.generators import (
    inference_workload,
    random_eid,
    random_instance,
    random_td,
    weakly_acyclic_dependencies,
)

from tests.oracle import modelcheck as oracle
from tests.oracle.homomorphism import extend_homomorphism

#: Every test runs under both join backends (the native leg skips
#: visibly when the extension is not built): the same seeds that hold
#: compiled ≡ legacy also hold native ≡ python.
pytestmark = pytest.mark.usefixtures("join_backend")

#: One namespace per checker: the reference search in tests/oracle and
#: the production checker, under the same names.
CHECKER_OPS = {
    "legacy": SimpleNamespace(
        ModelChecker=oracle.ModelChecker,
        find_violation=oracle.find_violation,
        satisfies_all=oracle.satisfies_all,
        all_violations=oracle.all_violations,
    ),
    "compiled": SimpleNamespace(
        ModelChecker=ModelChecker,
        find_violation=lambda dependency, instance: dependency.find_violation(
            instance
        ),
        satisfies_all=modelcheck.satisfies_all,
        all_violations=modelcheck.all_violations,
    ),
}
CHECKERS = tuple(CHECKER_OPS)


def satisfies_all(instance, dependencies, *, checker):
    return CHECKER_OPS[checker].satisfies_all(instance, dependencies)


def all_violations(instance, dependencies, *, checker):
    return CHECKER_OPS[checker].all_violations(instance, dependencies)


def find_violation(dependency, instance, *, checker):
    return CHECKER_OPS[checker].find_violation(dependency, instance)


def _assert_witness_valid(dependency, instance, witness):
    """A genuine violation: antecedents embed, conclusions cannot extend."""
    assert set(witness) == dependency.universal_variables()
    assert is_homomorphism(
        witness, dependency.antecedents, instance, flexible=is_variable
    )
    assert (
        extend_homomorphism(
            witness, list(dependency.conclusions), instance, flexible=is_variable
        )
        is None
    )


def _assert_checkers_agree(dependency, instance):
    legacy = find_violation(dependency, instance, checker="legacy")
    compiled = find_violation(dependency, instance, checker="compiled")
    assert (legacy is None) == (compiled is None), dependency
    if compiled is not None:
        _assert_witness_valid(dependency, instance, compiled)
        _assert_witness_valid(dependency, instance, legacy)
    return compiled


class TestVerdictAgreement:
    """holds_in verdicts must match on random TDs, EIDs and instances."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_dependencies_on_random_instances(self, seed):
        dependencies = [
            random_td(seed=seed, existential_probability=0.4),
            random_td(seed=seed + 500, existential_probability=0.0),
            random_eid(seed=seed),
            random_eid(seed=seed + 250, conclusions=3),
        ]
        instance = random_instance(seed=seed, rows=4 + seed % 8)
        for dependency in dependencies:
            _assert_checkers_agree(dependency, instance)

    @pytest.mark.parametrize("seed", range(8))
    def test_chased_instances_with_nulls(self, seed):
        """Fixpoints contain labelled nulls; verdicts must still agree."""
        dependencies = weakly_acyclic_dependencies(
            seed=seed, include_eids=(seed % 2 == 0)
        )
        start = random_instance(seed=seed, rows=6)
        final = chase(start, dependencies).instance
        # The fixpoint satisfies its own dependencies under both checkers.
        for checker in CHECKERS:
            assert satisfies_all(final, dependencies, checker=checker)
        # Probe unrelated dependencies against the null-bearing instance.
        for offset in range(3):
            probe = random_td(
                seed=seed * 97 + offset, existential_probability=0.5
            )
            _assert_checkers_agree(probe, final)

    def test_disproved_counterexamples_verify_under_both(self):
        dependencies, targets = inference_workload(queries=25, seed=11)
        budget = Budget(max_steps=2_000)
        disproved = 0
        for target in targets:
            outcome = implies(dependencies, target, budget=budget)
            if not outcome.disproved:
                continue
            disproved += 1
            counterexample = outcome.counterexample
            for checker in CHECKERS:
                assert satisfies_all(
                    counterexample, dependencies, checker=checker
                )
                witness = find_violation(target, counterexample, checker=checker)
                assert witness is not None
                _assert_witness_valid(target, counterexample, witness)
        assert disproved > 0  # the mix must actually exercise DISPROVED


class TestAllViolationsContract:
    """``all_violations == []`` exactly when ``satisfies_all``."""

    @pytest.mark.parametrize("seed", range(10))
    def test_iff_property_and_witnesses(self, seed):
        dependencies = [
            random_td(seed=seed * 3, existential_probability=0.3),
            random_td(seed=seed * 3 + 1, existential_probability=0.0),
            random_eid(seed=seed * 3 + 2),
        ]
        instance = random_instance(seed=seed + 100, rows=5 + seed % 6)
        for checker in CHECKERS:
            violations = all_violations(instance, dependencies, checker=checker)
            assert (violations == []) == satisfies_all(
                instance, dependencies, checker=checker
            )
            for dependency, witness in violations:
                _assert_witness_valid(dependency, instance, witness)
        # The *set* of violated dependencies agrees between checkers.
        violated = {
            checker: [
                id(dependency)
                for dependency, __ in all_violations(
                    instance, dependencies, checker=checker
                )
            ]
            for checker in CHECKERS
        }
        assert violated["legacy"] == violated["compiled"]


class TestModelCheckerState:
    """The shared-KernelState wrapper must track instance mutation."""

    def test_incremental_adds_stay_in_sync(self):
        from repro.relational.instance import Instance
        from repro.relational.values import Const

        schema = Schema(["FROM", "TO"])
        transitivity = parse_td("R(x, y) & R(y, z) -> R(x, z)", schema)
        # A 4-cycle: closing it transitively takes a dozen repairs.
        nodes = [Const(index) for index in range(4)]
        instance = Instance(
            schema, [(nodes[i], nodes[(i + 1) % 4]) for i in range(4)]
        )
        model = ModelChecker(instance)
        repairs = 0
        while repairs < 50:
            witness = model.find_violation(transitivity)
            fresh_reference = oracle.find_violation(transitivity, instance)
            assert (witness is None) == (fresh_reference is None)
            if witness is None:
                break
            image = tuple(
                witness[variable] for variable in transitivity.conclusion
            )
            assert model.add(image)
            assert image in instance  # add went through to the instance
            repairs += 1
        assert model.holds_in(transitivity)
        assert oracle.holds_in(transitivity, instance)

    def test_out_of_band_adds_detected_by_rebuild(self):
        schema = Schema(["FROM", "TO"])
        symmetry = parse_td("R(x, y) -> R(y, x)", schema)
        instance = random_instance(seed=9, rows=4, arity=2, schema=schema)
        model = ModelChecker(instance)
        witness = model.find_violation(symmetry)
        assert witness is not None
        # Mutate behind the checker's back: repair every violation via the
        # raw instance, then re-query — the row-count check must rebuild.
        while True:
            raw = oracle.find_violation(symmetry, instance)
            if raw is None:
                break
            instance.add(tuple(raw[variable] for variable in symmetry.conclusion))
        assert model.holds_in(symmetry)

    def test_add_checks_arity_on_every_path(self):
        """Regression: the synced compiled path used to inherit
        KernelState.add's arity-check bypass, so a malformed row raised
        on the legacy path but silently corrupted on the compiled one."""
        from repro.errors import ArityError
        from repro.relational.instance import Instance
        from repro.relational.values import Const

        schema = Schema(["FROM", "TO"])
        dependency = parse_td("R(x, y) -> R(y, x)", schema)
        bad_row = (Const("a"), Const("b"), Const("c"))
        for checker in CHECKERS:
            instance = Instance(schema, [(Const("a"), Const("b"))])
            model = CHECKER_OPS[checker].ModelChecker(instance)
            model.holds_in(dependency)  # compiled: builds the synced state
            with pytest.raises(ArityError):
                model.add(bad_row)
            assert len(instance) == 1  # nothing leaked in

    def test_legacy_mode_never_builds_kernel_state(self):
        instance = random_instance(seed=1, rows=5)
        dependency = random_td(seed=1)
        model = oracle.ModelChecker(instance)
        model.find_violation(dependency)
        assert instance._view is None  # no interned view was ever built
        # And the result matches the module-level legacy entry point.
        assert model.find_violation(dependency) == oracle.find_violation(
            dependency, instance
        )


class TestFiniteSearchDifferential:
    """The finite-model searches must behave identically per checker."""

    def test_exhaustive_search_identical_witness(self):
        schema = Schema(["FROM", "TO"])
        successor = parse_td("R(x, y) -> R(y, s)", schema)
        predecessor = parse_td("R(x, y) -> R(p, x)", schema)
        results = {}
        for checker in CHECKERS:
            with oracle.finite_searches(checker == "legacy"):
                results[checker] = search_exhaustive(
                    [successor], predecessor, domain_size=3
                )
        # Deterministic smallest-first enumeration + verdict agreement
        # means the two checkers return the *same* minimum witness.
        assert results["legacy"] is not None
        assert results["compiled"] is not None
        assert results["legacy"].rows == results["compiled"].rows

    @pytest.mark.parametrize("checker", CHECKERS)
    def test_random_search_witnesses_are_genuine(self, checker):
        """Trajectories may differ (witness order feeds the rng), so we
        check validity of whatever each checker's search returns."""
        schema = Schema(["FROM", "TO"])
        successor = parse_td("R(x, y) -> R(y, s)", schema)
        predecessor = parse_td("R(x, y) -> R(p, x)", schema)
        with oracle.finite_searches(checker == "legacy"):
            witness = search_random([successor], predecessor, seed=0)
        assert witness is not None
        for verifier in CHECKERS:
            assert satisfies_all(witness, [successor], checker=verifier)
            assert (
                find_violation(predecessor, witness, checker=verifier)
                is not None
            )

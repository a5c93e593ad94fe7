"""Unit tests for repro.workloads.generators."""

import pytest

from repro.chase.engine import chase
from repro.chase.implication import InferenceStatus, implies
from repro.chase.result import ChaseStatus
from repro.workloads.generators import (
    random_full_td,
    random_instance,
    random_td,
    transitivity_family,
)


class TestRandomTd:
    def test_deterministic_in_seed(self):
        assert random_td(seed=7) == random_td(seed=7)

    def test_different_seeds_differ_somewhere(self):
        dependencies = {random_td(seed=s) for s in range(10)}
        assert len(dependencies) > 1

    def test_typed_by_construction(self):
        for seed in range(10):
            assert random_td(seed=seed).is_typed()

    def test_requested_shape(self):
        td = random_td(arity=4, antecedents=5, seed=1)
        assert td.schema.arity == 4
        assert len(td.antecedents) == 5

    def test_full_variant_has_no_existentials(self):
        for seed in range(10):
            assert random_full_td(seed=seed).is_full()

    def test_existential_probability_one_all_existential(self):
        td = random_td(existential_probability=1.0, seed=0)
        assert len(td.existential_variables()) == td.schema.arity


class TestRandomInstance:
    def test_deterministic_in_seed(self):
        assert random_instance(seed=5) == random_instance(seed=5)

    def test_typed_by_construction(self):
        random_instance(seed=3).validate()

    def test_row_count_bounded_by_request(self):
        instance = random_instance(rows=10, seed=2)
        assert 1 <= len(instance) <= 10  # duplicates collapse

    def test_constants_per_column_respected(self):
        instance = random_instance(rows=50, constants_per_column=2, seed=1)
        for column in range(instance.schema.arity):
            assert len(instance.column_values(column)) <= 2


class TestTransitivityFamily:
    def test_instances_provable(self):
        deps, target = transitivity_family(4)
        assert implies(deps, target).status is InferenceStatus.PROVED

    def test_minimum_length(self):
        with pytest.raises(ValueError):
            transitivity_family(1)

    def test_full_tds_terminate(self):
        deps, target = transitivity_family(3)
        start, __ = target.freeze()
        result = chase(start, deps)
        assert result.status is ChaseStatus.TERMINATED


class TestGeneratedChaseBehaviour:
    """Random full TDs always give terminating chases (sanity-of-substrate)."""

    @pytest.mark.parametrize("seed", range(5))
    def test_full_td_chase_terminates(self, seed):
        dependency = random_full_td(seed=seed)
        instance = random_instance(seed=seed)
        result = chase(instance, [dependency])
        assert result.status is ChaseStatus.TERMINATED
        assert dependency.holds_in(result.instance)


class TestRandomEid:
    def test_deterministic_and_typed(self):
        from repro.workloads.generators import random_eid

        eid = random_eid(seed=3)
        assert eid == random_eid(seed=3)
        assert eid.is_typed()
        assert len(eid.conclusions) == 2

    def test_conclusion_atoms_share_existential_witnesses(self):
        from repro.workloads.generators import random_eid

        # With certainty-probability existentials, every conclusion cell
        # in a column uses the *same* existential variable.
        eid = random_eid(seed=0, existential_probability=1.0, conclusions=3)
        for column in range(eid.schema.arity):
            cells = {atom[column] for atom in eid.conclusions}
            assert len(cells) == 1
        assert eid.existential_variables()


class TestWeaklyAcyclicDependencies:
    def test_deterministic_and_weakly_acyclic(self):
        from repro.analysis import position_facts
        from repro.workloads.generators import weakly_acyclic_dependencies

        deps = weakly_acyclic_dependencies(seed=5)
        assert deps == weakly_acyclic_dependencies(seed=5)
        assert position_facts(deps).weakly_acyclic

    @pytest.mark.parametrize("seed", range(4))
    def test_every_chase_order_terminates(self, seed):
        from repro.workloads.generators import weakly_acyclic_dependencies

        from tests.oracle import chase as oracle

        deps = weakly_acyclic_dependencies(seed=seed, include_eids=True)
        instance = random_instance(seed=seed, rows=6)
        # The production chase, and the reference chase's delta-driven
        # discipline (a different firing order).
        for result in (
            chase(instance, deps),
            oracle.chase(
                instance, deps, variant=oracle.ChaseVariant.SEMI_NAIVE
            ),
        ):
            assert result.status is ChaseStatus.TERMINATED

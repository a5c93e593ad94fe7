"""Property-based tests for the chase engine's invariants."""

from hypothesis import given, settings

from repro.chase.budget import Budget
from repro.chase.engine import chase, replay
from repro.chase.result import ChaseStatus

from tests.properties.strategies import schema_td_instance


@given(schema_td_instance())
@settings(max_examples=40, deadline=None)
def test_terminated_chase_satisfies_dependency(data):
    """Fixpoint => model. The fundamental chase invariant."""
    __, td, instance = data
    result = chase(instance, [td], budget=Budget(max_steps=200, max_seconds=10))
    if result.status is ChaseStatus.TERMINATED:
        assert td.holds_in(result.instance)


@given(schema_td_instance())
@settings(max_examples=40, deadline=None)
def test_chase_only_adds_rows(data):
    """The chase is monotone: the input is preserved."""
    __, td, instance = data
    result = chase(instance, [td], budget=Budget(max_steps=100, max_seconds=10))
    assert instance.rows <= result.instance.rows


@given(schema_td_instance())
@settings(max_examples=40, deadline=None)
def test_trace_replays_to_same_instance(data):
    """The recorded trace is a faithful, verifying certificate."""
    __, td, instance = data
    result = chase(instance, [td], budget=Budget(max_steps=60, max_seconds=10))
    replayed = replay(instance, result.steps)
    assert replayed.rows == result.instance.rows


@given(schema_td_instance())
@settings(max_examples=40, deadline=None)
def test_full_td_chase_always_terminates(data):
    """Full TDs invent no values, so the chase must reach a fixpoint."""
    __, td, instance = data
    if not td.is_full():
        return
    result = chase(instance, [td], budget=Budget(max_steps=10_000, max_seconds=20))
    assert result.status is ChaseStatus.TERMINATED


@given(schema_td_instance())
@settings(max_examples=40, deadline=None)
def test_chase_idempotent_on_models(data):
    """Chasing a model of the dependency changes nothing."""
    __, td, instance = data
    if not td.holds_in(instance):
        return
    result = chase(instance, [td], budget=Budget(max_steps=100, max_seconds=10))
    assert result.status is ChaseStatus.TERMINATED
    assert result.instance.rows == instance.rows


@given(schema_td_instance())
@settings(max_examples=40, deadline=None)
def test_semi_naive_agrees_with_standard(data):
    """Delta-driven enumeration changes nothing observable (full TDs:
    equal fixpoints; embedded: both terminate or both don't within the
    same generous budget, with homomorphically equivalent results). The
    production chase against the reference semi-naive chase."""
    from repro.relational.core import homomorphically_equivalent

    from tests.oracle import chase as oracle

    __, td, instance = data
    budget = Budget(max_steps=80, max_seconds=10)
    standard = chase(instance, [td], budget=budget)
    semi = oracle.chase(
        instance, [td], variant=oracle.ChaseVariant.SEMI_NAIVE, budget=budget
    )
    if (
        standard.status is ChaseStatus.TERMINATED
        and semi.status is ChaseStatus.TERMINATED
    ):
        if td.is_full():
            assert semi.instance.rows == standard.instance.rows
        elif len(standard.instance) <= 12 and len(semi.instance) <= 12:
            assert homomorphically_equivalent(standard.instance, semi.instance)


@given(schema_td_instance())
@settings(max_examples=30, deadline=None)
def test_weak_acyclicity_guarantee(data):
    """Weakly acyclic single TDs terminate within a generous budget."""
    from repro.analysis import position_facts

    __, td, instance = data
    if not position_facts([td]).weakly_acyclic:
        return
    result = chase(instance, [td], budget=Budget(max_steps=5_000, max_seconds=20))
    assert result.status is ChaseStatus.TERMINATED


@given(schema_td_instance())
@settings(max_examples=30, deadline=None)
def test_satisfied_instances_stay_satisfied_under_product(data):
    """TDs are preserved under direct products (Horn preservation)."""
    from repro.relational.product import direct_product

    __, td, instance = data
    if not td.holds_in(instance) or len(instance) > 4:
        return
    squared = direct_product(instance, instance)
    assert td.holds_in(squared)

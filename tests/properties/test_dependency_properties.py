"""Property-based tests for dependency structure and diagrams."""

from hypothesis import given, settings

from repro.chase.implication import InferenceStatus, implies
from repro.chase.budget import Budget
from repro.dependencies.diagram import diagram_of
from repro.dependencies.parser import parse_td

from tests.properties.strategies import (
    schema_dependency_instance,
    schema_td_instance,
    typed_tds,
)


@given(typed_tds())
@settings(max_examples=60, deadline=None)
def test_diagram_round_trip(td):
    """diagram_of . to_dependency is the identity up to renaming."""
    rebuilt = diagram_of(td).to_dependency()
    assert rebuilt.structurally_equal(td)


@given(typed_tds())
@settings(max_examples=60, deadline=None)
def test_universal_existential_partition(td):
    """Universal and existential variables partition the variable set."""
    universal = td.universal_variables()
    existential = td.existential_variables()
    assert universal | existential == td.variables()
    assert not universal & existential


@given(typed_tds())
@settings(max_examples=60, deadline=None)
def test_full_iff_not_embedded(td):
    assert td.is_full() != td.is_embedded()


@given(typed_tds())
@settings(max_examples=60, deadline=None)
def test_str_parse_round_trip(td):
    reparsed = parse_td(str(td), td.schema)
    assert reparsed.structurally_equal(td)


@given(typed_tds())
@settings(max_examples=30, deadline=None)
def test_every_td_implies_itself(td):
    outcome = implies([td], td, budget=Budget(max_steps=50, max_seconds=5))
    assert outcome.status is InferenceStatus.PROVED


@given(typed_tds())
@settings(max_examples=60, deadline=None)
def test_canonical_form_stable(td):
    canonical = td.canonical()
    assert canonical.canonical() == canonical
    assert canonical.structurally_equal(td)


@given(schema_dependency_instance())
@settings(max_examples=80, deadline=None)
def test_trivial_tds_hold_everywhere(data):
    """is_trivial() really does mean valid in every database, for TDs
    and for EIDs (whose conclusion atoms must embed jointly)."""
    __, dependency, instance = data
    if dependency.is_trivial():
        assert dependency.holds_in(instance)


@given(schema_td_instance())
@settings(max_examples=40, deadline=None)
def test_violation_witness_is_genuine(data):
    """find_violation's witness maps every antecedent into the instance
    and no conclusion extension exists for it (checked with the
    reference search of tests/oracle)."""
    from repro.dependencies.template import is_variable
    from repro.relational.homomorphism import is_homomorphism

    from tests.oracle.homomorphism import extend_homomorphism
    from tests.oracle.modelcheck import holds_in

    __, td, instance = data
    witness = td.find_violation(instance)
    assert (witness is None) == holds_in(td, instance)
    if witness is None:
        return
    assert is_homomorphism(witness, td.antecedents, instance, flexible=is_variable)
    assert (
        extend_homomorphism(witness, [td.conclusion], instance, flexible=is_variable)
        is None
    )

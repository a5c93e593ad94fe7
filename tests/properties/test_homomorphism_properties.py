"""Property-based tests for homomorphism search.

Every property runs on the production search
(:mod:`repro.relational.homplan`) and on the reference search in
:mod:`tests.oracle.homomorphism`, and the two must enumerate the same
homomorphisms.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import homplan
from repro.relational.homomorphism import apply_assignment, is_homomorphism
from repro.relational.values import LabeledNull

from tests.oracle import homomorphism as oracle
from tests.properties.strategies import typed_instances

ENGINES = pytest.mark.parametrize(
    "engine", [homplan, oracle], ids=["compiled", "oracle"]
)


@ENGINES
@given(typed_instances())
@settings(max_examples=50, deadline=None)
def test_identity_embedding_always_exists(engine, instance):
    """Every ground instance embeds into itself via the empty mapping."""
    found = engine.find_homomorphism(instance.rows, instance)
    assert found == {}


@ENGINES
@given(typed_instances())
@settings(max_examples=50, deadline=None)
def test_found_homomorphisms_are_homomorphisms(engine, instance):
    """Whatever the search returns passes the independent checker."""
    if not instance:
        return
    # Replace one row's values by nulls and search for the pattern.
    row = next(iter(instance))
    pattern = tuple(LabeledNull(column) for column in range(len(row)))
    for assignment in engine.iter_homomorphisms([pattern], instance):
        assert is_homomorphism(assignment, [pattern], instance)
        image = apply_assignment(pattern, assignment)
        assert image in instance


@ENGINES
@given(typed_instances())
@settings(max_examples=50, deadline=None)
def test_single_null_pattern_match_count(engine, instance):
    """A fully flexible single-atom pattern matches every row exactly once
    when all rows are distinct (they are: instances are sets)."""
    if not instance:
        return
    arity = instance.schema.arity
    pattern = tuple(LabeledNull(column) for column in range(arity))
    matches = [
        apply_assignment(pattern, assignment)
        for assignment in engine.iter_homomorphisms([pattern], instance)
    ]
    assert sorted(map(repr, matches)) == sorted(map(repr, instance.rows))


@ENGINES
@given(typed_instances(), st.integers(min_value=0, max_value=2))
@settings(max_examples=50, deadline=None)
def test_composition_closure(engine, instance, seed_column):
    """h found from P into I, then P's image under h is inside I (functoriality
    of apply_assignment with respect to membership)."""
    if not instance or seed_column >= instance.schema.arity:
        return
    rows = list(instance.rows)[:2]
    patterns = [
        tuple(LabeledNull(index * 10 + column) for column in range(len(row)))
        for index, row in enumerate(rows)
    ]
    found = engine.find_homomorphism(patterns, instance)
    assert found is not None
    for pattern in patterns:
        assert apply_assignment(pattern, found) in instance


@given(typed_instances())
@settings(max_examples=50, deadline=None)
def test_engines_enumerate_the_same_homomorphisms(instance):
    """Two rows of the instance turned into null patterns: the compiled
    and reference searches find the same assignment set."""
    rows = list(instance.rows)[:2]
    patterns = [
        tuple(LabeledNull(index * 10 + column) for column in range(len(row)))
        for index, row in enumerate(rows)
    ]

    def assignments(engine):
        return {
            frozenset(assignment.items())
            for assignment in engine.iter_homomorphisms(patterns, instance)
        }

    assert assignments(homplan) == assignments(oracle)

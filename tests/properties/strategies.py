"""Shared hypothesis strategies for the property-based tests."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.dependencies.eid import EmbeddedImplicationalDependency
from repro.dependencies.template import TemplateDependency, Variable
from repro.relational.instance import Instance
from repro.relational.schema import Schema
from repro.relational.values import Const

#: Keep arities and sizes small: the properties are about structure, not
#: scale, and homomorphism search is exponential in the worst case.
ARITIES = st.integers(min_value=1, max_value=3)


@st.composite
def schemas(draw) -> Schema:
    arity = draw(ARITIES)
    return Schema([f"A{index}" for index in range(arity)])


@st.composite
def typed_instances(draw, schema: Schema | None = None, max_rows: int = 6) -> Instance:
    """Random typed instances: column c draws from its own constant pool."""
    if schema is None:
        schema = draw(schemas())
    rows = draw(
        st.lists(
            st.tuples(
                *[
                    st.integers(min_value=0, max_value=2)
                    for __ in range(schema.arity)
                ]
            ),
            min_size=0,
            max_size=max_rows,
        )
    )
    return Instance(
        schema,
        (
            tuple(Const((f"c{column}", value)) for column, value in enumerate(row))
            for row in rows
        ),
    )


@st.composite
def typed_tds(draw, schema: Schema | None = None) -> TemplateDependency:
    """Random typed TDs: per-column variable pools, random conclusion."""
    if schema is None:
        schema = draw(schemas())
    antecedent_count = draw(st.integers(min_value=1, max_value=3))
    pools = [
        [Variable(f"c{column}v{index}") for index in range(2)]
        for column in range(schema.arity)
    ]
    antecedents = []
    for __ in range(antecedent_count):
        atom = tuple(
            pools[column][draw(st.integers(min_value=0, max_value=1))]
            for column in range(schema.arity)
        )
        antecedents.append(atom)
    used = [
        sorted(
            {atom[column] for atom in antecedents},
            key=lambda variable: variable.name,
        )
        for column in range(schema.arity)
    ]
    conclusion = []
    for column in range(schema.arity):
        existential = draw(st.booleans())
        if existential or not used[column]:
            conclusion.append(Variable(f"c{column}star"))
        else:
            pick = draw(st.integers(min_value=0, max_value=len(used[column]) - 1))
            conclusion.append(used[column][pick])
    return TemplateDependency(schema, antecedents, tuple(conclusion))


@st.composite
def schema_td_instance(draw):
    """A schema with a TD and an instance over it."""
    schema = draw(schemas())
    td = draw(typed_tds(schema=schema))
    instance = draw(typed_instances(schema=schema))
    return schema, td, instance


@st.composite
def typed_eids(draw, schema: Schema | None = None) -> EmbeddedImplicationalDependency:
    """Random typed EIDs: a random TD's antecedents with two or three
    conclusion atoms, each column a universal of that column or one of
    two existentials shared across the atoms."""
    td = draw(typed_tds(schema=schema))
    used = [
        sorted({atom[column] for atom in td.antecedents}, key=lambda v: v.name)
        for column in range(td.schema.arity)
    ]
    conclusions = []
    for __ in range(draw(st.integers(min_value=2, max_value=3))):
        conclusions.append(
            tuple(
                draw(
                    st.sampled_from(
                        used[column]
                        + [Variable(f"c{column}e{index}") for index in range(2)]
                    )
                )
                for column in range(td.schema.arity)
            )
        )
    return EmbeddedImplicationalDependency(td.schema, td.antecedents, conclusions)


@st.composite
def schema_dependency_instance(draw):
    """A schema with a TD or an EID and an instance over it."""
    schema = draw(schemas())
    dependency = draw(st.one_of(typed_tds(schema=schema), typed_eids(schema=schema)))
    instance = draw(typed_instances(schema=schema))
    return schema, dependency, instance

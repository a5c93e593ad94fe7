"""A small text syntax for dependencies.

The syntax mirrors how the paper writes dependencies:

.. code-block:: text

    R(a, b, c) & R(a, b', c') -> R(a*, b, c')

* atoms are ``NAME(var, ..., var)`` with a single relation name (``R`` by
  convention, but any one identifier is accepted);
* ``&`` separates conjuncts, ``->`` or ``=>`` separates antecedents from
  the conclusion;
* variable names may contain letters, digits, underscores, primes (``'``)
  and a ``*`` suffix — matching the paper's ``a*, b', c''`` style;
* conclusion variables absent from the antecedents are existential, no
  annotation needed (the ``*`` is just part of the name);
* the reduction's ``attribute@node`` names (``E@3``, ``A0''@1``,
  ``0'@*``) and an optional ``label:`` prefix (``D1[A0.0=0]:``, which
  becomes the dependency's name) are accepted too, so the lines
  ``repro encode --full`` prints parse back to the same dependencies.

A single conclusion atom parses to a
:class:`~repro.dependencies.template.TemplateDependency`; several parse to
an :class:`~repro.dependencies.eid.EmbeddedImplicationalDependency`.
"""

from __future__ import annotations

import re
from typing import Optional, Union

from repro.errors import ParseError
from repro.relational.schema import Schema
from repro.dependencies.eid import EmbeddedImplicationalDependency
from repro.dependencies.template import TemplateDependency, Variable

_ATOM_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*\(([^()]*)\)\s*")
_VARIABLE_RE = re.compile(
    r"[A-Za-z_][A-Za-z0-9_']*\*?"  # the paper's a, b', c*
    r"|[A-Za-z0-9_]+'{0,2}@(?:[0-9]+|\*)"  # the reduction's E@3, 0''@*
)
#: ``D0:`` or ``D1[A0.0=0]:`` before the first atom.
_LABEL_RE = re.compile(
    r"\s*([A-Za-z_][A-Za-z0-9_]*(?:\[[^\s\[\]]*\])?)\s*:(.*)", re.DOTALL
)

Dependency = Union[TemplateDependency, EmbeddedImplicationalDependency]


def _default_schema(arity: int) -> Schema:
    """Attribute names ``A1..Ak`` for dependencies parsed without a schema."""
    return Schema([f"A{index + 1}" for index in range(arity)])


def _parse_atoms(text: str, where: str) -> tuple[str, list[tuple[Variable, ...]]]:
    """Parse a ``&``-separated conjunction of atoms."""
    atoms: list[tuple[Variable, ...]] = []
    relation: Optional[str] = None
    parts = text.split("&")
    for part in parts:
        match = _ATOM_RE.fullmatch(part)
        if match is None:
            raise ParseError(f"cannot parse atom {part.strip()!r} in {where}")
        name, args = match.group(1), match.group(2)
        if relation is None:
            relation = name
        elif relation != name:
            raise ParseError(
                f"dependencies use a single relation; saw {relation!r} and {name!r}"
            )
        variables = []
        for raw in args.split(","):
            token = raw.strip()
            if not _VARIABLE_RE.fullmatch(token or ""):
                raise ParseError(f"bad variable name {token!r} in {where}")
            variables.append(Variable(token))
        atoms.append(tuple(variables))
    assert relation is not None
    return relation, atoms


def parse_dependency(text: str, schema: Optional[Schema] = None) -> Dependency:
    """Parse ``text`` into a TD or an EID.

    When ``schema`` is omitted, a default schema ``A1..Ak`` matching the
    atoms' arity is synthesised. A ``label:`` prefix names the result.
    """
    name: Optional[str] = None
    labelled = _LABEL_RE.fullmatch(text)
    if labelled is not None:
        name, text = labelled.group(1), labelled.group(2)
    for arrow in ("->", "=>"):
        if arrow in text:
            left, __, right = text.partition(arrow)
            break
    else:
        raise ParseError("expected '->' or '=>' between antecedents and conclusion")
    relation_left, antecedents = _parse_atoms(left, "antecedents")
    relation_right, conclusions = _parse_atoms(right, "conclusion")
    if relation_left != relation_right:
        raise ParseError(
            f"dependencies use a single relation; saw {relation_left!r} "
            f"and {relation_right!r}"
        )
    arities = {len(atom) for atom in antecedents + conclusions}
    if len(arities) != 1:
        raise ParseError(f"atoms have inconsistent arities {sorted(arities)}")
    arity = arities.pop()
    if schema is None:
        schema = _default_schema(arity)
    elif schema.arity != arity:
        raise ParseError(
            f"atoms have arity {arity} but the schema has arity {schema.arity}"
        )
    if len(conclusions) == 1:
        return TemplateDependency(schema, antecedents, conclusions[0], name=name)
    return EmbeddedImplicationalDependency(schema, antecedents, conclusions, name=name)


def parse_td(text: str, schema: Optional[Schema] = None) -> TemplateDependency:
    """Parse ``text``, requiring a single-atom conclusion (a TD)."""
    dependency = parse_dependency(text, schema)
    if isinstance(dependency, TemplateDependency):
        return dependency
    raise ParseError("expected a template dependency (single conclusion atom)")

"""Homomorphism vocabulary shared by every engine and checker.

A *homomorphism* from a set of source rows into a target
:class:`~repro.relational.instance.Instance` is a mapping of the source's
flexible terms (labelled nulls, or dependency variables) to target values
such that every source row, after substitution, is a row of the target.
Rigid terms (constants) must map to themselves.

This module holds the types and the two search-free operations:
:func:`is_homomorphism` checks a given assignment and
:func:`apply_assignment` substitutes one. The certificate checker
(:func:`repro.chase.engine.apply_step`) needs nothing more. The search
itself — dependency satisfaction, chase triggers, implication testing
and core computation are all homomorphism problems — is
:mod:`repro.relational.homplan`, on the shared join kernel.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from repro.relational.instance import Instance
from repro.relational.values import is_null

#: Decides whether a source term may be remapped (variable-like) or is rigid.
Flexibility = Callable[[object], bool]

#: A (partial) homomorphism: flexible term -> target value.
Assignment = dict


def is_homomorphism(
    assignment: Mapping,
    source_rows: Iterable[Sequence[object]],
    target: Instance,
    *,
    flexible: Flexibility = is_null,
) -> bool:
    """Check that ``assignment`` maps every source row into ``target``."""
    for row in source_rows:
        image = []
        for term in row:
            if flexible(term):
                if term not in assignment:
                    return False
                image.append(assignment[term])
            else:
                image.append(term)
        if tuple(image) not in target:
            return False
    return True


def apply_assignment(
    row: Sequence[object],
    assignment: Mapping,
    *,
    flexible: Flexibility = is_null,
) -> tuple:
    """Substitute ``assignment`` into ``row`` (rigid terms pass through)."""
    return tuple(
        assignment[term] if flexible(term) and term in assignment else term
        for term in row
    )

"""Model checking by generic search (reference semantics).

A dependency holds in an instance when every antecedent match extends
to its conclusions. :mod:`repro.chase.checkplan` compiles that check
onto the join kernel; this is the search it is held to. One body serves
TDs and EIDs: both expose ``antecedents`` and ``conclusions`` (a TD's
``conclusions`` is its single conclusion atom as a one-element
conjunction), so the two semantics cannot drift.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator, Optional, Sequence

from repro.chase import finite_models
from repro.dependencies.template import is_variable
from repro.relational.instance import Instance, Row

from tests.oracle.homomorphism import extend_homomorphism, iter_homomorphisms


def find_violation(dependency, instance: Instance) -> Optional[dict]:
    """A violating antecedent assignment of ``dependency``, or None."""
    conclusions = list(dependency.conclusions)
    for assignment in iter_homomorphisms(
        dependency.antecedents, instance, flexible=is_variable
    ):
        extension = extend_homomorphism(
            assignment, conclusions, instance, flexible=is_variable
        )
        if extension is None:
            return dict(assignment)
    return None


def holds_in(dependency, instance: Instance) -> bool:
    """Does ``instance`` satisfy ``dependency``?"""
    return find_violation(dependency, instance) is None


def satisfies_all(instance: Instance, dependencies: Iterable) -> bool:
    """Does ``instance`` satisfy every dependency? (early exit)"""
    return all(holds_in(dependency, instance) for dependency in dependencies)


def all_violations(
    instance: Instance, dependencies: Sequence
) -> list[tuple[object, dict]]:
    """Every violated dependency with one witnessing assignment."""
    violations: list[tuple[object, dict]] = []
    for dependency in dependencies:
        witness = find_violation(dependency, instance)
        if witness is not None:
            violations.append((dependency, witness))
    return violations


class ModelChecker:
    """The :class:`repro.chase.checkplan.ModelChecker` interface on search.

    Stateless over its instance: every query searches the live rows, so
    it never builds the instance's kernel view. :func:`finite_searches`
    swaps it in where the finite-model searches construct their checker.
    """

    __slots__ = ("instance",)

    def __init__(self, instance: Instance):
        self.instance = instance

    def add(self, row: Row) -> bool:
        return self.instance.add(row)

    def find_violation(self, dependency) -> Optional[dict]:
        return find_violation(dependency, self.instance)

    def holds_in(self, dependency) -> bool:
        return self.find_violation(dependency) is None

    def satisfies_all(self, dependencies: Iterable) -> bool:
        return satisfies_all(self.instance, dependencies)

    def all_violations(self, dependencies: Sequence) -> list[tuple[object, dict]]:
        return all_violations(self.instance, dependencies)


@contextmanager
def finite_searches(reference: bool = True) -> Iterator[None]:
    """Run :mod:`repro.chase.finite_models`' searches on the reference
    :class:`ModelChecker` inside the block (on the production checker
    when ``reference`` is false)."""
    production = finite_models.ModelChecker
    if reference:
        finite_models.ModelChecker = ModelChecker
    try:
        yield
    finally:
        finite_models.ModelChecker = production

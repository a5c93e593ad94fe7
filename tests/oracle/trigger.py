"""Triggers: matches of a dependency's antecedents in an instance (reference).

A *trigger* for dependency ``d`` in instance ``I`` is a homomorphism ``h``
of ``d``'s antecedents into ``I``. The trigger is *active* when ``h`` has
no extension mapping the conclusion atoms into ``I`` — i.e. the dependency
is violated at ``h``. The restricted (standard) chase fires only active
triggers; the oblivious chase fires every trigger once.

The compiled chase (:mod:`repro.chase.plan`) never builds trigger
objects: it enumerates matches as integer registers and fires them in
place. These are the explicit objects the reference chase in
:mod:`tests.oracle.chase` works with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.chase.result import ChaseStep
from repro.dependencies.classify import Dependency
from repro.dependencies.template import Variable, is_variable
from repro.kernel.joins import atom_equality_pattern
from repro.relational.homomorphism import apply_assignment
from repro.relational.instance import Instance, Row
from repro.relational.values import NullFactory, Value

from tests.oracle.homomorphism import extend_homomorphism, iter_homomorphisms


@dataclass(frozen=True)
class Trigger:
    """A dependency together with an antecedent homomorphism.

    The assignment is stored as a sorted tuple of (variable name, value)
    pairs so triggers are hashable — the oblivious chase keys its
    fired-set on them.
    """

    dependency: Dependency
    bindings: tuple[tuple[str, Value], ...]

    @staticmethod
    def make(dependency: Dependency, assignment: Mapping[Variable, Value]) -> "Trigger":
        """Build a trigger from an assignment dict."""
        bindings = tuple(
            sorted(
                ((variable.name, value) for variable, value in assignment.items()),
                key=lambda pair: pair[0],
            )
        )
        trigger = Trigger(dependency, bindings)
        # Seed the assignment cache from the dict we already have (copied:
        # homomorphism enumeration reuses its dict between yields). The
        # cache is not a dataclass field, so equality and hashing still key
        # on (dependency, bindings) alone.
        object.__setattr__(trigger, "_cached_assignment", dict(assignment))
        return trigger

    def _shared_assignment(self) -> dict[Variable, Value]:
        """The cached variable -> value dict; callers must not mutate it.

        ``is_active`` and ``conclusion_rows`` sit inside the innermost
        chase loop, so the dict is built once per trigger instead of on
        every call.
        """
        cached = getattr(self, "_cached_assignment", None)
        if cached is None:
            cached = {Variable(name): value for name, value in self.bindings}
            object.__setattr__(self, "_cached_assignment", cached)
        return cached

    def assignment(self) -> dict[Variable, Value]:
        """The bindings as a fresh variable -> value dict."""
        return dict(self._shared_assignment())

    def is_active(self, instance: Instance) -> bool:
        """True when no extension covers the conclusion atoms."""
        extension = extend_homomorphism(
            self._shared_assignment(),
            self.dependency.conclusions,
            instance,
            flexible=is_variable,
        )
        return extension is None

    def conclusion_rows(
        self, existential_values: Mapping[Variable, Value]
    ) -> list[Row]:
        """The rows this trigger produces, given values for existentials."""
        assignment = {**self._shared_assignment(), **existential_values}
        return [
            apply_assignment(atom, assignment, flexible=is_variable)
            for atom in self.dependency.conclusions
        ]


def iter_triggers(instance: Instance, dependency: Dependency) -> Iterator[Trigger]:
    """All triggers (active or not) of ``dependency`` in ``instance``."""
    for assignment in iter_homomorphisms(
        dependency.antecedents, instance, flexible=is_variable
    ):
        yield Trigger.make(dependency, assignment)


def iter_active_triggers(
    instance: Instance, dependency: Dependency
) -> Iterator[Trigger]:
    """Only the active (violated) triggers of ``dependency`` in ``instance``."""
    for trigger in iter_triggers(instance, dependency):
        if trigger.is_active(instance):
            yield trigger


def _unify_atom(atom: tuple, row: Row) -> Mapping[Variable, Value] | None:
    """Match one antecedent atom against one concrete row."""
    assignment: dict[Variable, Value] = {}
    for variable, value in zip(atom, row):
        bound = assignment.setdefault(variable, value)
        if bound != value:
            return None
    return assignment


def iter_triggers_touching(
    instance: Instance,
    dependency: Dependency,
    delta: frozenset[Row] | set[Row],
) -> Iterator[Trigger]:
    """Triggers whose antecedent image uses at least one row of ``delta``.

    This is the semi-naive enumeration: at a chase round it suffices to
    consider matches that touch a row added in the previous round, because
    any other match was already examined (and activity only decreases as
    the instance grows). Each trigger is yielded once even when several of
    its atoms land in the delta.
    """
    seen: set[tuple[tuple[str, Value], ...]] = set()
    atoms = list(dependency.antecedents)
    for pivot_index, pivot_atom in enumerate(atoms):
        rest = atoms[:pivot_index] + atoms[pivot_index + 1 :]
        # Repeated-variable prefilter: skip rows that cannot unify with
        # the pivot before building any assignment dict.
        pattern = atom_equality_pattern(pivot_atom)
        for row in delta:
            if any(row[left] != row[right] for left, right in pattern):
                continue
            partial = _unify_atom(pivot_atom, row)
            if partial is None:
                continue
            for assignment in iter_homomorphisms(
                rest, instance, partial=partial, flexible=is_variable
            ):
                trigger = Trigger.make(dependency, assignment)
                if trigger.bindings in seen:
                    continue
                seen.add(trigger.bindings)
                yield trigger


def fire_trigger(
    instance: Instance, trigger: Trigger, fresh: NullFactory
) -> ChaseStep:
    """Fire ``trigger`` on ``instance`` (in place) and return the step.

    Every existential variable of the dependency receives one fresh
    labelled null, shared across all conclusion atoms — this sharing is
    what distinguishes a genuine EID conclusion conjunction from the weaker
    split into independent TDs.
    """
    dependency = trigger.dependency
    existential_values: dict[Variable, Value] = {
        variable: fresh() for variable in dependency.existential_variables()
    }
    rows = trigger.conclusion_rows(existential_values)
    added = tuple(row for row in rows if instance.add(row))
    return ChaseStep(
        dependency=dependency,
        bindings=trigger.bindings,
        added_rows=added,
    )

"""Conjunctive queries over the single relation, and the homomorphism theorem.

Template dependencies and conjunctive-query (CQ) containment are two
faces of the same homomorphism machinery — Sadri & Ullman's and Fagin
et al.'s papers move between them constantly. This module provides the
query side:

* :class:`ConjunctiveQuery` — ``head(x̄) :- R(...), R(...), ...``;
* evaluation over instances (all answers, via homomorphism enumeration);
* **Chandra–Merlin containment**: ``Q₁ ⊆ Q₂`` iff ``Q₂`` maps
  homomorphically into ``Q₁``'s canonical (frozen) database with heads
  aligned — decidable, NP-complete, and exactly the technique the chase
  reuses for dependencies;
* **minimization**: the core of the body computed by iterated retraction,
  yielding the unique (up to isomorphism) minimal equivalent CQ.

The property tests check the semantic readings: containment implies
answer inclusion on random instances, and minimization preserves answers.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from repro.dependencies.template import Atom, Variable, is_variable
from repro.errors import DependencyError
from repro.relational.homomorphism import apply_assignment
from repro.relational.homplan import (
    find_homomorphism,
    find_retraction_assignment,
    iter_homomorphisms,
)
from repro.relational.instance import Instance
from repro.relational.schema import Schema
from repro.relational.values import Const, Value


class ConjunctiveQuery:
    """A conjunctive query ``head(x̄) :- body`` over one relation.

    ``head`` is a tuple of variables (the projection); every head
    variable must occur in the body (safety). Body atoms are tuples of
    variables, one per column of the schema.
    """

    __slots__ = ("schema", "head", "body", "name")

    def __init__(
        self,
        schema: Schema,
        head: Sequence[Variable],
        body: Iterable[Sequence[Variable]],
        *,
        name: Optional[str] = None,
    ):
        self.schema = schema
        self.head: tuple[Variable, ...] = tuple(head)
        self.body: tuple[Atom, ...] = tuple(tuple(atom) for atom in body)
        self.name = name
        if not self.body:
            raise DependencyError("a conjunctive query needs at least one body atom")
        body_variables = {variable for atom in self.body for variable in atom}
        for atom in self.body:
            if len(atom) != schema.arity:
                raise DependencyError(
                    f"body atom of arity {len(atom)} does not fit schema "
                    f"arity {schema.arity}"
                )
            for term in atom:
                if not is_variable(term):
                    raise DependencyError("body atoms must contain variables only")
        unsafe = [variable for variable in self.head if variable not in body_variables]
        if unsafe:
            raise DependencyError(
                f"unsafe head variables {[v.name for v in unsafe]} "
                "(must occur in the body)"
            )

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def answers(self, instance: Instance) -> set[tuple[Value, ...]]:
        """All head tuples produced by body homomorphisms into ``instance``."""
        results: set[tuple[Value, ...]] = set()
        for assignment in iter_homomorphisms(
            self.body, instance, flexible=is_variable
        ):
            results.add(tuple(assignment[variable] for variable in self.head))
        return results

    def is_boolean(self) -> bool:
        """True for a boolean (empty-head) query."""
        return not self.head

    def holds_in(self, instance: Instance) -> bool:
        """Boolean evaluation: does the body match at all?"""
        return (
            find_homomorphism(self.body, instance, flexible=is_variable)
            is not None
        )

    # ------------------------------------------------------------------
    # The homomorphism theorem
    # ------------------------------------------------------------------

    def canonical_instance(self) -> tuple[Instance, dict[Variable, Value]]:
        """The frozen body, with the variable-to-constant assignment."""
        assignment: dict[Variable, Value] = {}
        variables = {variable for atom in self.body for variable in atom}
        for variable in sorted(variables, key=lambda v: v.name):
            assignment[variable] = Const(("cq", variable.name))
        instance = Instance(
            self.schema,
            (
                tuple(assignment[variable] for variable in atom)
                for atom in self.body
            ),
        )
        return instance, assignment

    def is_contained_in(self, other: "ConjunctiveQuery") -> bool:
        """Chandra–Merlin: ``self ⊆ other`` iff ``other`` folds onto
        ``self``'s canonical database with heads aligned."""
        if self.schema != other.schema or len(self.head) != len(other.head):
            return False
        canonical, assignment = self.canonical_instance()
        # Align heads, checking consistency: if `other` repeats a head
        # variable where `self` has two different ones, no alignment exists.
        partial: dict[Variable, Value] = {}
        for other_variable, self_variable in zip(other.head, self.head):
            value = assignment[self_variable]
            if partial.setdefault(other_variable, value) != value:
                return False
        witness = find_homomorphism(
            other.body, canonical, partial=partial, flexible=is_variable
        )
        return witness is not None

    def is_equivalent_to(self, other: "ConjunctiveQuery") -> bool:
        """Mutual containment."""
        return self.is_contained_in(other) and other.is_contained_in(self)

    # ------------------------------------------------------------------
    # Minimization (the CQ core)
    # ------------------------------------------------------------------

    def minimized(self) -> "ConjunctiveQuery":
        """The minimal equivalent query: fold redundant body atoms away.

        Iterated proper retraction of the body fixing the head variables —
        the query analogue of :func:`repro.relational.core.core_of`, on
        the same compiled retraction walk.
        """
        body = list(self.body)
        head_identity = {variable: variable for variable in self.head}
        while True:
            body_instance = Instance(self.schema, (tuple(atom) for atom in body))
            assignment = find_retraction_assignment(
                body,
                body_instance,
                partial=head_identity,
                flexible=is_variable,
            )
            if assignment is None:
                break
            image = {
                apply_assignment(tuple(atom), assignment, flexible=is_variable)
                for atom in body
            }
            body = [tuple(atom) for atom in sorted(image, key=repr)]
        return ConjunctiveQuery(self.schema, self.head, body, name=self.name)

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConjunctiveQuery):
            return NotImplemented
        return (
            self.schema == other.schema
            and self.head == other.head
            and set(self.body) == set(other.body)
        )

    def __hash__(self) -> int:
        return hash((self.schema, self.head, frozenset(self.body)))

    def __repr__(self) -> str:
        return f"<ConjunctiveQuery head={len(self.head)} body={len(self.body)}>"

    def __str__(self) -> str:
        head = ", ".join(variable.name for variable in self.head)
        body = ", ".join(
            "R(" + ", ".join(variable.name for variable in atom) + ")"
            for atom in self.body
        )
        return f"q({head}) :- {body}"

"""The generic backtracking homomorphism search (reference semantics).

A *homomorphism* from a set of source rows into a target
:class:`~repro.relational.instance.Instance` is a mapping of the source's
flexible terms (labelled nulls, or dependency variables) to target values
such that every source row, after substitution, is a row of the target.
Rigid terms (constants) must map to themselves.

The search is a backtracking join over the target's per-cell indexes,
always expanding the source row with the most already-bound components
first (a most-constrained-first heuristic), re-deriving that choice at
every node. :mod:`repro.relational.homplan` compiles the same search
onto the shared join kernel; the differential suites hold the two to
identical homomorphism *sets*.

The retraction, core and conjunctive-query operations at the bottom
are the same algorithms as :mod:`repro.relational.core` and
:class:`~repro.relational.queries.ConjunctiveQuery`, run on this
search instead of the compiled one.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional, Sequence

from repro.dependencies.template import Variable, is_variable
from repro.relational.homomorphism import Assignment, Flexibility, apply_assignment
from repro.relational.instance import Instance, Row
from repro.relational.queries import ConjunctiveQuery
from repro.relational.values import Value, is_null


def _row_candidates(
    target: Instance,
    source_row: Sequence[object],
    assignment: Mapping,
    flexible: Flexibility,
) -> Iterator[Row]:
    """Yield target rows compatible with ``source_row`` under ``assignment``."""
    pattern: dict[int, Value] = {}
    for column, term in enumerate(source_row):
        if flexible(term):
            if term in assignment:
                pattern[column] = assignment[term]
        else:
            pattern[column] = term  # rigid: must match literally
    yield from target.matching_rows(pattern)


def _bound_count(row: Sequence[object], assignment: Mapping, flexible: Flexibility) -> int:
    """How many components of ``row`` are already determined."""
    return sum(
        1
        for term in row
        if not flexible(term) or term in assignment
    )


def iter_homomorphisms(
    source_rows: Iterable[Sequence[object]],
    target: Instance,
    *,
    partial: Optional[Mapping] = None,
    flexible: Flexibility = is_null,
) -> Iterator[Assignment]:
    """Yield every homomorphism of ``source_rows`` into ``target``.

    ``partial`` pre-binds some flexible terms (its bindings are honoured but
    not re-checked against rigidity). ``flexible`` classifies source terms;
    the default treats labelled nulls as variables and everything else as
    rigid, which is the right notion for instance-to-instance homomorphisms.

    Yields assignment dicts covering every flexible term of the source.
    The same dict object is reused between yields; callers that store
    results must copy them (``dict(h)``).
    """
    rows = [tuple(row) for row in source_rows]
    assignment: Assignment = dict(partial) if partial else {}
    yield from _search(rows, target, assignment, flexible)


def _search(
    pending: list[tuple],
    target: Instance,
    assignment: Assignment,
    flexible: Flexibility,
) -> Iterator[Assignment]:
    if not pending:
        yield assignment
        return
    # Most-constrained-first: pick the pending row with the most bound cells.
    best_index = max(
        range(len(pending)),
        key=lambda i: _bound_count(pending[i], assignment, flexible),
    )
    source_row = pending[best_index]
    rest = pending[:best_index] + pending[best_index + 1 :]
    for candidate in _row_candidates(target, source_row, assignment, flexible):
        added: list[object] = []
        ok = True
        for term, value in zip(source_row, candidate):
            if flexible(term):
                bound = assignment.get(term)
                if bound is None:
                    assignment[term] = value
                    added.append(term)
                elif bound != value:
                    ok = False
                    break
            elif term != value:
                ok = False
                break
        if ok:
            yield from _search(rest, target, assignment, flexible)
        for term in added:
            del assignment[term]


def find_homomorphism(
    source_rows: Iterable[Sequence[object]],
    target: Instance,
    *,
    partial: Optional[Mapping] = None,
    flexible: Flexibility = is_null,
) -> Optional[Assignment]:
    """Return one homomorphism (as a fresh dict) or None."""
    for assignment in iter_homomorphisms(
        source_rows, target, partial=partial, flexible=flexible
    ):
        return dict(assignment)
    return None


def count_homomorphisms(
    source_rows: Iterable[Sequence[object]],
    target: Instance,
    *,
    partial: Optional[Mapping] = None,
    flexible: Flexibility = is_null,
    limit: Optional[int] = None,
) -> int:
    """Count homomorphisms, optionally stopping at ``limit``."""
    if limit is not None and limit <= 0:
        # A non-positive limit caps the count at nothing; the old
        # post-increment check returned 1 for ``limit=0``.
        return 0
    count = 0
    for __ in iter_homomorphisms(source_rows, target, partial=partial, flexible=flexible):
        count += 1
        if limit is not None and count >= limit:
            break
    return count


def extend_homomorphism(
    assignment: Mapping,
    extra_rows: Iterable[Sequence[object]],
    target: Instance,
    *,
    flexible: Flexibility = is_null,
) -> Optional[Assignment]:
    """Extend ``assignment`` so that ``extra_rows`` also embed into ``target``.

    Returns the extended assignment (a fresh dict) or None when no extension
    exists. This is exactly the *trigger activity* test of the restricted
    chase: a trigger is active when its antecedent homomorphism has no
    extension covering the conclusion.
    """
    return find_homomorphism(extra_rows, target, partial=assignment, flexible=flexible)


# ---------------------------------------------------------------------------
# Retractions and cores
# ---------------------------------------------------------------------------


def find_retraction_assignment(
    source_rows: Iterable[Sequence[object]],
    target: Instance,
    *,
    partial: Optional[Mapping] = None,
    flexible: Flexibility = is_null,
) -> Optional[Assignment]:
    """A homomorphism whose image has fewer rows than the source, or None.

    Enumerates complete homomorphisms and sizes their images afterwards
    (the compiled walk instead exits at the first collapse).
    """
    rows = [tuple(row) for row in source_rows]
    for candidate in iter_homomorphisms(
        rows, target, partial=dict(partial) if partial else {}, flexible=flexible
    ):
        image = {apply_assignment(row, candidate, flexible=flexible) for row in rows}
        if len(image) < len(rows):
            return dict(candidate)
    return None


def find_retraction(instance: Instance) -> Optional[Assignment]:
    """A proper retraction of ``instance`` (nulls flexible), or None."""
    return find_retraction_assignment(list(instance.rows), instance)


def core_of(instance: Instance) -> Instance:
    """The core of ``instance`` by iterated proper retraction."""
    current = instance.copy()
    while True:
        retraction = find_retraction(current)
        if retraction is None:
            return current
        current = Instance(
            current.schema,
            (apply_assignment(row, retraction) for row in current),
        )


def is_core(instance: Instance) -> bool:
    """True when ``instance`` admits no proper retraction."""
    return find_retraction(instance) is None


def homomorphically_equivalent(left: Instance, right: Instance) -> bool:
    """Homomorphisms exist in both directions (constants fixed)."""
    if left.schema != right.schema:
        return False
    if find_homomorphism(left.rows, right) is None:
        return False
    return find_homomorphism(right.rows, left) is not None


# ---------------------------------------------------------------------------
# Conjunctive queries
# ---------------------------------------------------------------------------


def cq_answers(query: ConjunctiveQuery, instance: Instance) -> set[tuple[Value, ...]]:
    """All head tuples produced by body homomorphisms into ``instance``."""
    return {
        tuple(assignment[variable] for variable in query.head)
        for assignment in iter_homomorphisms(
            query.body, instance, flexible=is_variable
        )
    }


def cq_contained_in(query: ConjunctiveQuery, other: ConjunctiveQuery) -> bool:
    """Chandra–Merlin: ``query ⊆ other`` iff ``other`` folds onto
    ``query``'s canonical database with heads aligned."""
    if query.schema != other.schema or len(query.head) != len(other.head):
        return False
    canonical, assignment = query.canonical_instance()
    partial: dict[Variable, Value] = {}
    for other_variable, query_variable in zip(other.head, query.head):
        value = assignment[query_variable]
        if partial.setdefault(other_variable, value) != value:
            return False
    return (
        find_homomorphism(
            other.body, canonical, partial=partial, flexible=is_variable
        )
        is not None
    )


def cq_equivalent(query: ConjunctiveQuery, other: ConjunctiveQuery) -> bool:
    """Mutual containment."""
    return cq_contained_in(query, other) and cq_contained_in(other, query)


def cq_minimized(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """The minimal equivalent query, by iterated retraction of the body
    fixing the head variables."""
    body = list(query.body)
    head_identity = {variable: variable for variable in query.head}
    while True:
        body_instance = Instance(query.schema, (tuple(atom) for atom in body))
        assignment = find_retraction_assignment(
            body, body_instance, partial=head_identity, flexible=is_variable
        )
        if assignment is None:
            break
        image = {
            apply_assignment(tuple(atom), assignment, flexible=is_variable)
            for atom in body
        }
        body = [tuple(atom) for atom in sorted(image, key=repr)]
    return ConjunctiveQuery(query.schema, query.head, body, name=query.name)


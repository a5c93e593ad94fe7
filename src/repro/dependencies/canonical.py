"""Canonical forms and content hashes for dependencies and queries.

Dependencies are closed formulas: renaming variables or reordering the
antecedent (or, for EIDs, conclusion) conjunction yields a logically
identical sentence. The batch inference service deduplicates and caches
queries by *content*, so it needs a canonical form that is invariant under
exactly those transformations, plus a stable hash of it:

* :func:`canonical_shape` — atoms as tuples of variable *numbers* (first
  occurrence along a canonically chosen atom ordering), the
  isomorphism-invariant skeleton of a dependency;
* :func:`canonical_key` / :func:`dependency_fingerprint` — the shape plus
  the schema, and its SHA-256 content hash;
* :func:`query_key` / :func:`query_fingerprint` — the same for a whole
  inference query ``D ⊨ d``: the dependency *set* is deduplicated and
  sorted, so ``D``'s order and repetitions do not matter either;
* :func:`canonicalize` — a dependency rebuilt with the canonical variable
  names (``v0, v1, ...``), for display and structural comparison.

The shape comes from an individualization-refinement canonical labelling,
the scheme of nauty and Traces (McKay & Piperno, "Practical Graph
Isomorphism II"). Variables are coloured by colour refinement (1-WL over
the atoms: a variable's colour gathers the block, column and colour tuple
of every atom it occurs in) until the partition stops splitting. While a
colour class holds several variables, the search branches on each member
of the smallest one, gives it a fresh colour and refines again. At a leaf
every variable has its own colour; the leaf's shape sorts each block by
colour tuple and renumbers variables by first occurrence. The key is the
least leaf shape. Colours are ranks of sorted signatures, so nothing in
the search sees variable names or the caller's atom order, and the
search is exact whenever it visits the whole tree.

Hashing sits on the batch service's hot path, so a node budget caps the
tree of a highly symmetric dependency: once it is spent the search
follows one branch to a leaf. That leaf can depend on the input's
variable order, so the degraded case can split one cache key in two. It
never conflates distinct dependencies: every leaf shape is a relabelled
copy of the input, so equal shapes imply isomorphic dependencies.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, Optional, Sequence

from repro.dependencies.classify import Dependency
from repro.dependencies.eid import EmbeddedImplicationalDependency
from repro.dependencies.template import Atom, TemplateDependency, Variable

#: One antecedent/conclusion block of a shape: atoms over variable numbers.
ShapeBlock = tuple[tuple[int, ...], ...]

#: The isomorphism-invariant skeleton: (antecedent block, conclusion block).
Shape = tuple[ShapeBlock, ShapeBlock]

#: Search-tree nodes (one refinement each) a labelling may visit before
#: it stops branching and follows a single path to a leaf. The service's
#: workloads and the reduction's encodings need at most a handful; what
#: exhausts it is a large, highly symmetric conjunction, such as the
#: symmetric edge relation of a clique on seven variables (a clique on
#: six needs 1237 nodes). Spent, it holds one labelling to a few hundred
#: milliseconds.
_NODE_BUDGET = 2_000


def _least_shape(antecedents: Sequence[Atom], conclusions: Sequence[Atom]) -> Shape:
    """The least leaf shape of the individualization-refinement tree."""
    numbers: dict[Variable, int] = {}
    atoms: list[tuple[int, tuple[int, ...]]] = [
        (block, tuple([numbers.setdefault(variable, len(numbers)) for variable in atom]))
        for block, source in enumerate((antecedents, conclusions))
        for atom in source
    ]
    size = len(numbers)
    occurrences: list[list[tuple[int, int, int]]] = [[] for __ in range(size)]
    for index, (block, atom) in enumerate(atoms):
        for column, number in enumerate(atom):
            occurrences[number].append((block, column, index))

    def refine(colour: list[int]) -> list[int]:
        """Colour refinement (1-WL) until the partition stops splitting.

        A variable's signature is its colour plus the sorted multiset of
        ``(block, column, atom colour tuple)`` over its occurrences. New
        colours are the ranks of the sorted signatures, so they depend
        only on structure, never on variable names or atom order.
        """
        classes = len(set(colour))
        while True:
            tuples = [tuple([colour[number] for number in atom]) for __, atom in atoms]
            signatures = [
                (
                    colour[number],
                    tuple(
                        sorted(
                            [
                                (block, column, tuples[index])
                                for block, column, index in occurrences[number]
                            ]
                        )
                    ),
                )
                for number in range(size)
            ]
            rank = {
                signature: position
                for position, signature in enumerate(sorted(set(signatures)))
            }
            colour = [rank[signature] for signature in signatures]
            if len(rank) == classes or len(rank) == size:
                return colour
            classes = len(rank)

    def leaf_shape(colour: list[int]) -> Shape:
        """Each block sorted by colour tuple, renumbered by first occurrence."""
        blocks: tuple[list[tuple[int, ...]], list[tuple[int, ...]]] = ([], [])
        for block, atom in atoms:
            blocks[block].append(tuple([colour[number] for number in atom]))
        renumber: dict[int, int] = {}
        antecedent_block, conclusion_block = [
            tuple(
                [
                    tuple([renumber.setdefault(value, len(renumber)) for value in atom])
                    for atom in sorted(tuples)
                ]
            )
            for tuples in blocks
        ]
        return antecedent_block, conclusion_block

    best: Optional[Shape] = None
    budget = _NODE_BUDGET
    # Depth-first over the search tree. A spent budget ends the search at
    # the first leaf; until one is found, each node follows one branch.
    pending = [[0] * size]
    while pending:
        if budget <= 0 and best is not None:
            break
        budget -= 1
        colour = refine(pending.pop())
        cells: dict[int, list[int]] = {}
        for number, value in enumerate(colour):
            cells.setdefault(value, []).append(number)
        split = min(
            ((len(members), value) for value, members in cells.items() if len(members) > 1),
            default=None,
        )
        if split is None:
            shape = leaf_shape(colour)
            if best is None or shape < best:
                best = shape
            continue
        members = cells[split[1]]
        if budget <= 0:
            members = members[:1]
        # Individualize each member of the target cell: it gets a fresh
        # colour just below its old class, the rest keep their order.
        doubled = [2 * value for value in colour]
        for number in reversed(members):
            child = list(doubled)
            child[number] -= 1
            pending.append(child)
    assert best is not None
    return best


def canonical_shape(dependency: Dependency) -> Shape:
    """The least leaf shape of the canonical labelling search.

    Invariant under variable renaming and under reordering of the
    antecedent and conclusion conjunctions.
    """
    return _least_shape(dependency.antecedents, dependency.conclusions)


def canonical_key(dependency: Dependency) -> tuple:
    """A hashable, comparison-friendly canonical identity.

    Two dependencies get the same key exactly when they are the same
    sentence up to variable renaming and conjunction order. The schema is
    part of the key: the same shape over different attribute lists is a
    different dependency.
    """
    antecedent_block, conclusion_block = canonical_shape(dependency)
    return (dependency.schema.attributes, antecedent_block, conclusion_block)


def canonicalize(dependency: Dependency) -> Dependency:
    """Rebuild ``dependency`` with canonical variable names ``v0, v1, ...``."""
    antecedent_block, conclusion_block = canonical_shape(dependency)

    def rebuild(block: ShapeBlock) -> list[tuple[Variable, ...]]:
        return [
            tuple(Variable(f"v{index}") for index in atom) for atom in block
        ]

    if isinstance(dependency, TemplateDependency):
        return TemplateDependency(
            dependency.schema,
            rebuild(antecedent_block),
            rebuild(conclusion_block)[0],
            name=dependency.name,
        )
    return EmbeddedImplicationalDependency(
        dependency.schema,
        rebuild(antecedent_block),
        rebuild(conclusion_block),
        name=dependency.name,
    )


def _digest(key: tuple) -> str:
    """SHA-256 of a canonical key (tuples serialize as JSON arrays)."""
    payload = json.dumps(key, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def dependency_fingerprint(dependency: Dependency) -> str:
    """A stable content hash of one dependency's canonical key."""
    return _digest(canonical_key(dependency))


def premise_key(dependencies: Iterable[Dependency]) -> tuple:
    """Canonical identity of a premise *set*: deduplicated, sorted keys.

    Batch callers answering many targets against one premise set should
    compute this once and pass it to :func:`query_fingerprint` via
    ``premises`` — canonical labeling is the expensive part of hashing.
    """
    return tuple(sorted({canonical_key(dependency) for dependency in dependencies}))


def query_key(
    dependencies: Iterable[Dependency],
    target: Dependency,
    *,
    premises: Optional[tuple] = None,
) -> tuple:
    """Canonical identity of the inference query ``dependencies ⊨ target``.

    The premise set is deduplicated and sorted by canonical key, so the
    key is invariant under reordering and repetition of ``dependencies``
    as well as per-dependency renaming. ``premises`` short-circuits the
    premise-set labeling with a precomputed :func:`premise_key`.
    """
    if premises is None:
        premises = premise_key(dependencies)
    return (premises, canonical_key(target))


def query_fingerprint(
    dependencies: Iterable[Dependency],
    target: Dependency,
    *,
    premises: Optional[tuple] = None,
) -> str:
    """A stable content hash for a whole ``D ⊨ d`` query."""
    return _digest(query_key(dependencies, target, premises=premises))

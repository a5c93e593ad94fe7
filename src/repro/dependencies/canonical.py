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

Hashing sits on the batch service's hot path, and the same dependencies
come back renamed and reordered batch after batch. The search sees only
variable numbers, so its result is a function of any relabelled copy of
the input. The labelling is memoized on one such copy, packed into bytes
(:func:`_memo_key`): each block's atoms sorted by a name-free occurrence
weight, then variables numbered by first occurrence. Most disguised
copies of a dependency map to one key and skip the search. The memo
goes through :func:`~repro.kernel.joins.memoized` (``_SHAPE_CACHE_MAX``
shapes) and keeps each shape's compact JSON beside it, so fingerprinting
a memoized dependency serializes nothing. The premise and schema half
of a digest is serialized once per premise key and schema. Keys and
fingerprints are the same as without the memo.

A node budget caps the tree of a highly symmetric dependency: once it is
spent the search follows one branch to a leaf. That leaf depends on the
variable order of the memo key, which follows the sorted atoms, so the
degraded case can split one cache key in two. It never conflates
distinct dependencies: every leaf shape is a relabelled copy of the
input, so equal shapes imply isomorphic dependencies.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from typing import Iterable, Optional, Sequence

from repro.dependencies.classify import Dependency
from repro.dependencies.eid import EmbeddedImplicationalDependency
from repro.dependencies.template import Atom, TemplateDependency, Variable
from repro.kernel.joins import memoized

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


#: Labelled shapes with their compact JSON, keyed by the input's structure
#: with atoms sorted by occurrence weight and variables numbered by first
#: occurrence (see :func:`_memo_key`): a renamed, reordered copy of a
#: dependency seen before skips the search and the serialization.
_SHAPE_CACHE: dict[bytes, tuple[Shape, bytes]] = {}
_SHAPE_CACHE_MAX = 4096

#: Interned shape atoms. Memoized shapes repeat a few distinct atoms
#: such as ``(0, 1)``; sharing them halves a full shape memo (2.9 to
#: 1.4 MB under tracemalloc on ``inference_workload`` targets).
_ATOM_CACHE: dict[tuple[int, ...], tuple[int, ...]] = {}
_ATOM_CACHE_MAX = 4096


def _memo_key(antecedents: Sequence[Atom], conclusions: Sequence[Atom]) -> bytes:
    """The structure key: a relabelled copy of the input, packed as integers.

    The antecedent count, the arity, then every atom's variable numbers.
    Each block's atoms are first sorted by a name-free occurrence weight:
    a variable's weight counts its occurrences per ``(block, column)``
    slot, eight bits a slot with the first slot most significant, and an
    atom's weight lists its variables' weights in column order. Ties keep
    input order (the sort is stable). Variables are then numbered by
    first occurrence in the sorted order. Every atom has the schema's
    arity, so the key is injective; it holds no ``Variable``.

    The key is still a relabelled copy of the input, so equal keys mean
    isomorphic inputs, and those get the same least shape because the
    search is exact. The weight only orders atoms and need not be
    injective (a count past 255 carries into the next slot). It makes
    most conjunction orders of one dependency meet in one key; atoms it
    ties, such as the middle of a path, split the class into a few keys,
    which the memo absorbs.
    """
    arity = len((antecedents or conclusions)[0])
    units = [1 << (8 * slot) for slot in range(2 * arity - 1, -1, -1)]
    weights: dict[str, int] = {}
    for offset, source in ((0, antecedents), (arity, conclusions)):
        for atom in source:
            for slot, variable in enumerate(atom, offset):
                name = variable.name
                weights[name] = weights.get(name, 0) + units[slot]
    numbers: dict[str, int] = {}
    flat = [len(antecedents), arity]
    for source in (antecedents, conclusions):
        if len(source) > 1:
            source = sorted(source, key=lambda atom: [weights[variable.name] for variable in atom])
        for atom in source:
            for variable in atom:
                flat.append(numbers.setdefault(variable.name, len(numbers)))
    return array("I", flat).tobytes()


def _least_shape(antecedents: Sequence[Atom], conclusions: Sequence[Atom]) -> tuple[Shape, bytes]:
    """The least leaf shape of the individualization-refinement tree, and
    its compact JSON without the outer brackets.

    The search sees only variable numbers, so it runs on, and is memoized
    by, :func:`_memo_key`'s copy of the input: a memoized shape is a
    function of the key alone, whichever input was seen first.
    """
    return memoized(_SHAPE_CACHE, _memo_key(antecedents, conclusions), _label, _SHAPE_CACHE_MAX)


def _label(key: bytes) -> tuple[Shape, bytes]:
    """:func:`_search`'s shape and its JSON fragment, ``<block>,<block>``."""
    shape = _search(key)
    return shape, _json(shape)[1:-1]


def _search(key: bytes) -> Shape:
    """Individualization-refinement over the atoms of a structure key."""
    flat = array("I")
    flat.frombytes(key)
    antecedents, arity = flat[0], flat[1]
    atoms = [tuple(flat[start : start + arity]) for start in range(2, len(flat), arity)]
    size = 1 + max(flat[2:])
    occurrences: list[list[tuple[int, int, int]]] = [[] for __ in range(size)]
    for index, atom in enumerate(atoms):
        block = 0 if index < antecedents else 1
        for column, number in enumerate(atom):
            occurrences[number].append((block, column, index))

    def refine(colour: list[int]) -> list[int]:
        """Colour refinement (1-WL) until the partition stops splitting.

        A variable's signature is its colour plus the sorted multiset of
        ``(block, column, atom colour tuple)`` over its occurrences. New
        colours are the ranks of the sorted signatures, so they depend
        only on structure, never on variable names or atom order. A
        variable alone in its class keeps an empty multiset: its colour
        already ranks it, so its signature need not be built.
        """
        classes = len(set(colour))
        while classes < size:
            tuples = [tuple([colour[number] for number in atom]) for atom in atoms]
            shared: dict[int, bool] = {}
            for value in colour:
                shared[value] = value in shared
            signatures = [
                (
                    value,
                    tuple(
                        sorted(
                            [
                                (block, column, tuples[index])
                                for block, column, index in occurrences[number]
                            ]
                        )
                    )
                    if shared[value]
                    else (),
                )
                for number, value in enumerate(colour)
            ]
            # Rank by comparison, not hashing: nested tuples cache no hash.
            colour = [0] * size
            rank = -1
            previous = None
            for number in sorted(range(size), key=signatures.__getitem__):
                if signatures[number] != previous:
                    previous = signatures[number]
                    rank += 1
                colour[number] = rank
            if rank + 1 == classes:
                break
            classes = rank + 1
        return colour

    def leaf_shape(colour: list[int]) -> Shape:
        """Each block sorted by colour tuple, renumbered by first occurrence."""
        blocks: tuple[list[tuple[int, ...]], list[tuple[int, ...]]] = ([], [])
        for index, atom in enumerate(atoms):
            blocks[index >= antecedents].append(tuple([colour[number] for number in atom]))
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

    # The first refinement round from the uniform colouring ranks each
    # variable by its (block, column) occurrence profile alone.
    profiles = [
        tuple(sorted([(block, column) for block, column, __ in occurs]))
        for occurs in occurrences
    ]
    ranks = {profile: position for position, profile in enumerate(sorted(set(profiles)))}
    best: Optional[Shape] = None
    budget = _NODE_BUDGET
    # Depth-first over the search tree. A spent budget ends the search at
    # the first leaf; until one is found, each node follows one branch.
    pending = [[ranks[profile] for profile in profiles]]
    while pending:
        if budget <= 0 and best is not None:
            break
        budget -= 1
        colour = refine(pending.pop())
        if len(set(colour)) == size:
            shape = leaf_shape(colour)
            if best is None or shape < best:
                best = shape
            continue
        cells: dict[int, list[int]] = {}
        for number, value in enumerate(colour):
            cells.setdefault(value, []).append(number)
        __, target = min(
            (len(members), value) for value, members in cells.items() if len(members) > 1
        )
        members = cells[target]
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
    antecedent_block, conclusion_block = [
        tuple([memoized(_ATOM_CACHE, atom, lambda same: same, _ATOM_CACHE_MAX) for atom in block])
        for block in best
    ]
    return antecedent_block, conclusion_block


def canonical_shape(dependency: Dependency) -> Shape:
    """The least leaf shape of the canonical labelling search.

    Invariant under variable renaming and under reordering of the
    antecedent and conclusion conjunctions.
    """
    return _least_shape(dependency.antecedents, dependency.conclusions)[0]


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


def _json(key: tuple) -> bytes:
    """A canonical key as compact JSON (tuples serialize as arrays)."""
    return json.dumps(key, separators=(",", ":")).encode("utf-8")


def dependency_fingerprint(dependency: Dependency) -> str:
    """A stable content hash of one dependency's canonical key."""
    return _digest(None, dependency)


def premise_key(dependencies: Iterable[Dependency]) -> tuple:
    """Canonical identity of a premise *set*: deduplicated, sorted keys.

    Batch callers answering many targets against one premise set should
    compute this once and pass it to :func:`query_fingerprint` via
    ``premises``, rather than rebuild it for every target.
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


#: The JSON of a digest up to the target's shape, ``[<premise key>,[<schema>,``
#: (``[<schema>,`` for a lone dependency), per premise key and schema: a
#: batch serializes its premise set and schema once, not per target.
_PREFIX_CACHE: dict[tuple, bytes] = {}
_PREFIX_CACHE_MAX = 128


def _prefix(key: tuple) -> bytes:
    premises, attributes = key
    schema = b"[" + _json(attributes) + b","
    return schema if premises is None else b"[" + _json(premises) + b"," + schema


def _digest(premises: Optional[tuple], dependency: Dependency) -> str:
    """The SHA-256 of :func:`canonical_key`'s JSON, or, given a premise
    key, of :func:`query_key`'s.

    Built as the memoized prefix plus the shape's memoized JSON fragment,
    byte for byte :func:`_json` of the key, so a memo hit serializes
    nothing.
    """
    prefix = memoized(
        _PREFIX_CACHE, (premises, dependency.schema.attributes), _prefix, _PREFIX_CACHE_MAX
    )
    __, fragment = _least_shape(dependency.antecedents, dependency.conclusions)
    closing = b"]" if premises is None else b"]]"
    return hashlib.sha256(prefix + fragment + closing).hexdigest()


def query_fingerprint(
    dependencies: Iterable[Dependency],
    target: Dependency,
    *,
    premises: Optional[tuple] = None,
) -> str:
    """A stable content hash for a whole ``D ⊨ d`` query: the SHA-256 of
    :func:`query_key`'s JSON."""
    if premises is None:
        premises = premise_key(dependencies)
    return _digest(premises, target)

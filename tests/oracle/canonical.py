"""The canonical labelling keyed on atom order (reference).

:mod:`repro.dependencies.canonical` memoizes its labelling on a copy of
the input whose atoms are sorted by an occurrence weight before the
variables are numbered, so that most disguised copies of a dependency
share one memo entry. :func:`_least_shape` and :func:`_search` below are
the labelling before that change, verbatim: the memo key numbers
variables by first occurrence in the input's own atom order. Whenever
the search visits its whole tree the least shape does not depend on the
key's order, so :func:`canonical_key` must equal the production key on
every input that does not spend the node budget.
"""

from __future__ import annotations

from array import array
from typing import Optional, Sequence

from repro.dependencies.classify import Dependency
from repro.dependencies.template import Atom
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


#: Labelled shapes, keyed by the input's structure with variables numbered
#: by first occurrence (see :func:`_least_shape`): a renamed copy of a
#: dependency seen before skips the search.
_SHAPE_CACHE: dict[bytes, Shape] = {}
_SHAPE_CACHE_MAX = 4096

#: Interned shape atoms. Memoized shapes repeat a few distinct atoms
#: such as ``(0, 1)``; sharing them halves a full shape memo (2.9 to
#: 1.4 MB under tracemalloc on ``inference_workload`` targets).
_ATOM_CACHE: dict[tuple[int, ...], tuple[int, ...]] = {}
_ATOM_CACHE_MAX = 4096


def _least_shape(antecedents: Sequence[Atom], conclusions: Sequence[Atom]) -> Shape:
    """The least leaf shape of the individualization-refinement tree.

    The search sees only variable numbers, so it runs on, and is memoized
    by, the structure key: the antecedent count, the arity, then every
    atom's variable numbers (first occurrence, input order), packed as
    integers. Every atom has the schema's arity, so the key is injective;
    it holds no ``Variable``.
    """
    numbers: dict[str, int] = {}
    flat = [len(antecedents), len((antecedents or conclusions)[0])]
    for source in (antecedents, conclusions):
        for atom in source:
            flat.extend([numbers.setdefault(variable.name, len(numbers)) for variable in atom])
    return memoized(_SHAPE_CACHE, array("I", flat).tobytes(), _search, _SHAPE_CACHE_MAX)


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


def canonical_key(dependency: Dependency) -> tuple:
    """``(attributes, antecedent block, conclusion block)``, as the
    production :func:`repro.dependencies.canonical.canonical_key`."""
    antecedent_block, conclusion_block = _least_shape(
        dependency.antecedents, dependency.conclusions
    )
    return (dependency.schema.attributes, antecedent_block, conclusion_block)

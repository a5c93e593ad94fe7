"""The Fagin-et-al position graph's facts, computed in one pass.

The *dependency graph* of a set lives on the single relation's column
positions, with

* a **regular** edge ``p -> q`` whenever some dependency has a
  universal variable occurring in antecedent position ``p`` and
  conclusion position ``q`` (values may be copied from ``p`` to ``q``),
* a **special** edge ``p => q`` whenever a universal variable occurring
  in antecedent position ``p`` also occurs in the conclusion, and some
  *existential* variable occurs in conclusion position ``q`` (a fresh
  value in ``q`` can be created from a value in ``p``),

one edge per (antecedent occurrence, conclusion occurrence) pair. The
set is weakly acyclic when no cycle goes through a special edge; then
every chase sequence terminates, and the acyclic special-edge structure
gives the *rank* (the maximum number of special edges on any walk into
a position) that the termination certificate's derived budget is
computed from.

The analyzer needs four facts of this graph, and :func:`position_facts`
computes them without building it: the edge counts arithmetically, and
the witness and rank from a per-source adjacency that keeps, for each
position pair, the name of its first regular and first special edge.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.dependencies.classify import Dependency


@dataclass(frozen=True)
class PositionEdge:
    """One dependency-graph edge, with provenance."""

    source: int
    target: int
    special: bool
    dependency_name: str

    def describe(self, attributes: Sequence[str]) -> str:
        arrow = "=>" if self.special else "->"
        return (
            f"{attributes[self.source]} {arrow} {attributes[self.target]}"
            f"  [{self.dependency_name}]"
        )


@dataclass(frozen=True)
class PositionFacts:
    """What the analyzer reads off the position graph.

    ``special_cycle`` is None exactly when the set is weakly acyclic;
    ``rank`` is the maximum position rank then, and None otherwise.
    """

    position_count: int
    regular_edge_count: int
    special_edge_count: int
    special_cycle: Optional[Tuple[PositionEdge, ...]]
    rank: Optional[int]

    @property
    def weakly_acyclic(self) -> bool:
        return self.special_cycle is None


#: Per source position: target -> [first regular name, first special
#: name], targets in the order their first edge was seen.
_Adjacency = List[Dict[int, List[Optional[str]]]]


def position_facts(dependencies: Sequence[Dependency]) -> PositionFacts:
    """Position count, edge counts, special-cycle witness and rank.

    The witness is the first special edge ``p => q`` — by source
    position, then targets in first-seen order — whose target reaches
    its source, followed by a fewest-edges closing path from ``q`` back
    to ``p`` (breadth first, successors in first-seen order), each step
    a regular edge where one exists. The rank comes from longest-path
    relaxation with special edges weighing 1, which terminates because
    a weakly acyclic graph has no cycle of positive weight.
    """
    if not dependencies:
        return PositionFacts(0, 0, 0, None, 0)
    arity = dependencies[0].schema.arity
    adjacency: _Adjacency = [{} for __ in range(arity)]
    regular = special = 0
    for dependency in dependencies:
        name = getattr(dependency, "name", None) or "dependency"
        heads: Dict[object, List[int]] = {}
        for atom in dependency.conclusions:
            for position, variable in enumerate(atom):
                heads.setdefault(variable, []).append(position)
        # Antecedent occurrences of conclusion variables, in order: each
        # is the source of one edge per conclusion occurrence of its
        # variable and one special edge per fresh (existential) position.
        frontier = [
            (source, variable)
            for atom in dependency.antecedents
            for source, variable in enumerate(atom)
            if variable in heads
        ]
        reached = {variable for __, variable in frontier}
        fresh = sorted(
            {
                position
                for variable, positions in heads.items()
                if variable not in reached
                for position in positions
            }
        )
        special += len(frontier) * len(fresh)
        for source, variable in frontier:
            targets = heads[variable]
            regular += len(targets)
            out = adjacency[source]
            for target in targets:
                names = out.setdefault(target, [None, None])
                if names[0] is None:
                    names[0] = name
            for target in fresh:
                names = out.setdefault(target, [None, None])
                if names[1] is None:
                    names[1] = name
    cycle = _special_cycle(adjacency)
    rank: Optional[int] = None
    if cycle is None:
        rank = _rank(adjacency) if special else 0
    return PositionFacts(arity, regular, special, cycle, rank)


def _special_cycle(adjacency: _Adjacency) -> Optional[Tuple[PositionEdge, ...]]:
    for source, out in enumerate(adjacency):
        for target, (__, special_name) in out.items():
            if special_name is None:
                continue
            path = [target] if target == source else _path(adjacency, target, source)
            if path is None:
                continue
            witness = [PositionEdge(source, target, True, special_name)]
            for step_source, step_target in zip(path, path[1:]):
                regular_name, step_special = adjacency[step_source][step_target]
                step_name = regular_name if regular_name is not None else step_special
                assert step_name is not None  # every entry holds an edge
                witness.append(
                    PositionEdge(
                        step_source, step_target, regular_name is None, step_name
                    )
                )
            return tuple(witness)
    return None


def _path(adjacency: _Adjacency, start: int, goal: int) -> Optional[List[int]]:
    """A fewest-edges path from ``start`` to ``goal`` (``start != goal``),
    or None when ``goal`` is unreachable."""
    parent: Dict[int, int] = {}
    queue: Deque[int] = deque([start])
    seen = {start}
    while queue:
        node = queue.popleft()
        for successor in adjacency[node]:
            if successor in seen:
                continue
            parent[successor] = node
            if successor == goal:
                path = [goal]
                while path[-1] != start:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            seen.add(successor)
            queue.append(successor)
    return None


def _rank(adjacency: _Adjacency) -> int:
    rank = [0] * len(adjacency)
    changed = True
    while changed:
        changed = False
        for source, out in enumerate(adjacency):
            for target, (__, special_name) in out.items():
                reach = rank[source] + (special_name is not None)
                if reach > rank[target]:
                    rank[target] = reach
                    changed = True
    return max(rank, default=0)

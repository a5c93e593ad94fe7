"""The pairwise joint-acyclicity check (reference semantics).

:func:`repro.analysis.report.existential_depth` decides joint acyclicity
on a graph over distinct seed-position sets and rules. This is the
construction it is held to: one node per existential variable, one
``Ω`` per variable, every pair of variables tested for an edge, and the
dense graph handed to Tarjan's SCCs and a longest-path sweep.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.graph import MultiDiGraph
from repro.dependencies.classify import Dependency


def existential_depth(
    dependencies: Sequence[Dependency],
) -> Optional[int]:
    """Joint-acyclicity depth, or None when the set is not jointly acyclic.

    Builds the Krötzsch–Rudolph existential-dependency graph: one node
    per existential variable ``z``, with ``Ω(z)`` the least position set
    containing ``z``'s conclusion positions and closed under frontier
    propagation (if every antecedent position of a conclusion-occurring
    universal ``x`` lies in ``Ω(z)``, add ``x``'s conclusion positions);
    an edge ``z -> z'`` when ``z'``'s rule has a frontier variable whose
    antecedent positions all lie in ``Ω(z)``. Acyclic ⟺ jointly acyclic;
    the returned depth (longest path, in nodes) bounds the waves of null
    creation.
    """
    rules: List[Dict[object, Tuple[Set[int], Set[int]]]] = []
    evars: List[Tuple[int, Set[int]]] = []  # (rule index, conclusion positions)
    for rule_index, dependency in enumerate(dependencies):
        universal = dependency.universal_variables()
        conclusion_variables = {
            variable for atom in dependency.conclusions for variable in atom
        }
        frontier: Dict[object, Tuple[Set[int], Set[int]]] = {}
        for variable in conclusion_variables & universal:
            body = {
                position
                for atom in dependency.antecedents
                for position, term in enumerate(atom)
                if term == variable
            }
            head = {
                position
                for atom in dependency.conclusions
                for position, term in enumerate(atom)
                if term == variable
            }
            frontier[variable] = (body, head)
        rules.append(frontier)
        for variable in sorted(
            dependency.existential_variables(), key=repr
        ):
            positions = {
                position
                for atom in dependency.conclusions
                for position, term in enumerate(atom)
                if term == variable
            }
            evars.append((rule_index, positions))

    omegas: List[Set[int]] = []
    for __, positions in evars:
        omega = set(positions)
        changed = True
        while changed:
            changed = False
            for frontier in rules:
                for body, head in frontier.values():
                    if body and body <= omega and not head <= omega:
                        omega |= head
                        changed = True
        omegas.append(omega)

    graph = MultiDiGraph()
    graph.add_nodes_from(range(len(evars)))
    for source, omega in enumerate(omegas):
        for target, (rule_index, __) in enumerate(evars):
            frontier = rules[rule_index]
            if any(body and body <= omega for body, __head in frontier.values()):
                graph.add_edge(source, target)

    components = graph.strongly_connected_components()
    for component in components:
        if len(component) > 1:
            return None
        node = next(iter(component))
        if graph.get_edge_data(node, node) is not None:
            return None
    # Longest path (in nodes) over the acyclic graph; Tarjan emits
    # reverse topological order, so walk it backwards (sources first).
    depth: Dict[int, int] = {}
    for component in reversed(components):
        node = next(iter(component))
        depth[node] = 1
        for source in graph.nodes():
            if source in depth and graph.get_edge_data(source, node) is not None:
                depth[node] = max(depth[node], depth[source] + 1)
    return max(depth.values(), default=0)

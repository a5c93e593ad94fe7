"""The analyzer's graph constructions (reference semantics).

:mod:`repro.analysis` computes its graph facts directly, without
building a graph. This module keeps the constructions those facts are
held to, each over an explicit :class:`~tests.oracle.graph.MultiDiGraph`:

* :func:`existential_depth` — the pairwise joint-acyclicity check: one
  node per existential variable, one ``Ω`` per variable, every pair of
  variables tested for an edge, and the dense graph handed to Tarjan's
  SCCs and a longest-path sweep
  (:func:`repro.analysis.report.existential_depth` builds it over
  distinct seed-position sets and rules instead);
* :func:`build_position_graph`, :func:`special_cycle_of` and
  :func:`position_ranks` — the Fagin-et-al position graph with one edge
  per (antecedent occurrence, conclusion occurrence), its special-cycle
  witness from Tarjan's SCCs plus a BFS closing path, and the ranks on
  the SCC condensation (:func:`repro.analysis.positions.position_facts`
  computes the counts, witness and rank in one pass);
* :func:`firing_graph_of` and :func:`strata_of` — the complete firing
  graph over the productive rules and its SCC condensation
  (:attr:`repro.analysis.report.AnalysisReport.strata` derives the same
  strata from the never-firing indices).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis.positions import PositionEdge
from repro.dependencies.classify import Dependency

from tests.oracle.graph import MultiDiGraph


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


def build_position_graph(dependencies: Sequence[Dependency]) -> MultiDiGraph:
    """The Fagin-et-al dependency graph over column positions."""
    graph = MultiDiGraph()
    if not dependencies:
        return graph
    arity = dependencies[0].schema.arity
    graph.add_nodes_from(range(arity))
    for dependency in dependencies:
        name = getattr(dependency, "name", None) or "dependency"
        universal = dependency.universal_variables()
        existential = dependency.existential_variables()
        conclusion_variables = {
            variable
            for atom in dependency.conclusions
            for variable in atom
        }
        existential_positions = sorted(
            {
                position
                for atom in dependency.conclusions
                for position, variable in enumerate(atom)
                if variable in existential
            }
        )
        for atom in dependency.antecedents:
            for position, variable in enumerate(atom):
                if variable not in universal:
                    continue
                if variable not in conclusion_variables:
                    continue
                for conclusion_atom in dependency.conclusions:
                    for target, target_variable in enumerate(conclusion_atom):
                        if target_variable == variable:
                            graph.add_edge(
                                position,
                                target,
                                special=False,
                                dependency_name=name,
                            )
                for target in existential_positions:
                    graph.add_edge(
                        position, target, special=True, dependency_name=name
                    )
    return graph


def special_cycle_of(graph: MultiDiGraph) -> Optional[List[PositionEdge]]:
    """A cycle through a special edge, or None when weakly acyclic.

    A special edge lies on a cycle exactly when its endpoints share a
    strongly connected component; the witness returned is that edge plus
    a shortest path closing the loop (preferring regular edges for each
    closing step, so the witness pins the one special edge that matters).
    """
    if graph.number_of_nodes() == 0:
        return None
    component_of: Dict[int, int] = {}
    for index, component in enumerate(graph.strongly_connected_components()):
        for node in component:
            component_of[node] = index
    for source, target, data in graph.edges(data=True):
        if not data.get("special"):
            continue
        if component_of[source] != component_of[target]:
            continue
        witness = [
            PositionEdge(
                source=source,
                target=target,
                special=True,
                dependency_name=str(data.get("dependency_name", "dependency")),
            )
        ]
        if source != target:
            path = graph.shortest_path(target, source)
            for step_source, step_target in zip(path, path[1:]):
                parallel = graph.get_edge_data(step_source, step_target)
                assert parallel is not None  # path edges exist
                edge_data = min(
                    parallel.values(),
                    key=lambda d: bool(d.get("special", False)),
                )
                witness.append(
                    PositionEdge(
                        source=step_source,
                        target=step_target,
                        special=bool(edge_data.get("special")),
                        dependency_name=str(
                            edge_data.get("dependency_name", "dependency")
                        ),
                    )
                )
        return witness
    return None


def position_ranks(graph: MultiDiGraph) -> Mapping[int, int]:
    """Per-position rank: max special edges on any walk into the position.

    Defined (finite) only for weakly acyclic graphs — callers must have
    checked :func:`special_cycle_of` first. Computed on the SCC
    condensation: inside an SCC every edge is regular (a special edge
    within one would be a special cycle), so rank is constant per
    component and propagates along condensation edges, +1 across special
    ones.
    """
    components = graph.strongly_connected_components()
    component_of: Dict[int, int] = {}
    for index, component in enumerate(components):
        for node in component:
            component_of[node] = index
    # Max edge weight (special = 1) between distinct components.
    weight: Dict[int, Dict[int, int]] = {}
    for source, target, data in graph.edges(data=True):
        cs, ct = component_of[source], component_of[target]
        if cs == ct:
            continue
        edge_weight = 1 if data.get("special") else 0
        targets = weight.setdefault(cs, {})
        if edge_weight > targets.get(ct, -1):
            targets[ct] = edge_weight
    # Tarjan emits components in reverse topological order; walk them
    # predecessors-first and push ranks forward.
    rank = [0] * len(components)
    for cs in reversed(range(len(components))):
        for ct, edge_weight in weight.get(cs, {}).items():
            rank[ct] = max(rank[ct], rank[cs] + edge_weight)
    return {node: rank[component] for node, component in component_of.items()}


def firing_graph_of(fires: Sequence[bool]) -> MultiDiGraph:
    """The conservative dependency-to-dependency firing graph.

    ``fires`` holds each dependency's ``not is_trivial()``. Productive
    dependencies form a complete subgraph — the sound over-approximation
    for a single relation, where any added row can complete a trigger
    for any antecedent — and never-firing dependencies are isolated
    nodes.
    """
    graph = MultiDiGraph()
    graph.add_nodes_from(range(len(fires)))
    productive = [index for index, flag in enumerate(fires) if flag]
    for source in productive:
        for target in productive:
            graph.add_edge(source, target)
    return graph


def strata_of(graph: MultiDiGraph) -> Tuple[Tuple[int, ...], ...]:
    """Condense a firing graph into strata (tuples of dep indices).

    Strata are in topological order of the condensation: once a later
    stratum starts firing, no earlier stratum can acquire a new active
    trigger (there is no firing-graph edge back into it). Never-firing
    dependencies come out as singleton strata.
    """
    components = graph.strongly_connected_components()
    # Tarjan emits reverse topological order (successors first).
    strata = [tuple(sorted(component)) for component in reversed(components)]
    # Deterministic layout: singleton never-firing strata first, then
    # the productive components (their relative topological order kept).
    never = [
        stratum
        for stratum in strata
        if len(stratum) == 1 and not any(True for __ in graph.successors(stratum[0]))
    ]
    firing = [stratum for stratum in strata if stratum not in never]
    return tuple(never + firing)

"""Firing graph, stratification, and goal-directed relevance.

The firing graph has one node per dependency and an edge ``a -> b``
whenever a firing of ``a`` could create a *new active trigger* for
``b``. In this repository's single-relation, typed setting that
relation is almost complete — any new row can participate in a match of
any antecedent (a homomorphism may collapse every antecedent atom onto
one row), so the only edges that can be *soundly* omitted are those
involving dependencies that can never fire at all:

* a dependency whose conclusions map into its own antecedents under a
  substitution fixing the universal variables (:func:`never_fires`)
  holds in every database, so the restricted chase never finds an
  active trigger for it — it has no outgoing edges (it adds nothing)
  and needs no incoming ones (nothing can wake it).

Conservative over-approximation is the invariant every consumer leans
on: spurious edges cost only precision, a missing edge would let
goal-directed pruning change chase semantics. :func:`stratify`
condenses the graph into strata (never-firing dependencies isolate
into their own), a static fact the analysis report shows;
:func:`goal_relevant` is the backward reachability from an implication
goal — at this granularity every productive dependency is
goal-reachable, so its pruning power comes from the never-firing set,
with duplicate and entailed dependencies handled separately by
:mod:`repro.analysis.report`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.analysis.graph import MultiDiGraph
from repro.dependencies.classify import Dependency
from repro.dependencies.template import is_variable
from repro.relational.homplan import find_homomorphism
from repro.relational.instance import Instance


def never_fires(dependency: Dependency) -> bool:
    """True when no trigger for ``dependency`` can ever be active.

    Generalizes :meth:`TemplateDependency.is_trivial` to multi-atom
    (EID) conclusions: every conclusion atom must embed into the
    antecedent set under one substitution fixing the universal
    variables (shared existentials must map consistently). Any
    antecedent match then already witnesses the conclusion, so the
    restricted chase never fires the dependency — dropping it from a
    chase changes neither the fixpoint nor any goal check.
    """
    antecedent_instance = Instance(
        dependency.schema,
        (tuple(atom) for atom in dependency.antecedents),  # type: ignore[arg-type]
    )
    universals = dependency.universal_variables()
    conclusion_variables = {
        variable for atom in dependency.conclusions for variable in atom
    }
    identity = {
        variable: variable for variable in conclusion_variables & universals
    }
    extension = find_homomorphism(
        list(dependency.conclusions),
        antecedent_instance,
        partial=identity,
        flexible=is_variable,
    )
    return extension is not None


def firing_graph(dependencies: Sequence[Dependency]) -> MultiDiGraph:
    """The conservative dependency-to-dependency firing graph.

    Nodes are dependency indices. Productive (possibly-firing)
    dependencies form a complete subgraph — the sound over-
    approximation for a single relation, where any added row can
    complete a trigger for any antecedent — and never-firing
    dependencies are isolated nodes.
    """
    return firing_graph_of([not never_fires(dependency) for dependency in dependencies])


def firing_graph_of(fires: Sequence[bool]) -> MultiDiGraph:
    """:func:`firing_graph` from each dependency's ``not never_fires``."""
    graph = MultiDiGraph()
    graph.add_nodes_from(range(len(fires)))
    productive = [index for index, flag in enumerate(fires) if flag]
    for source in productive:
        for target in productive:
            graph.add_edge(source, target)
    return graph


def stratify(dependencies: Sequence[Dependency]) -> Tuple[Tuple[int, ...], ...]:
    """:func:`strata_of` over a freshly built firing graph."""
    return strata_of(firing_graph(dependencies))


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


def goal_relevant(
    dependencies: Sequence[Dependency], graph: MultiDiGraph
) -> Set[int]:
    """Dependency indices backward-reachable from an implication goal.

    The goal check is a homomorphism of the target's conclusion atoms
    into the chased instance; with one relation, any productive
    dependency's added rows can extend such an embedding, so the goal
    links back to every productive dependency and reachability closes
    over the firing graph from there. What this soundly excludes is
    exactly the dependencies with no path to a productive node — the
    never-firing ones.
    """
    frontier: List[int] = [
        index for index in range(len(dependencies))
        if any(True for __ in graph.successors(index))
    ]
    relevant: Set[int] = set(frontier)
    predecessors: Dict[int, Set[int]] = {}
    for source, target in graph.edges():
        predecessors.setdefault(target, set()).add(source)
    while frontier:
        node = frontier.pop()
        for source in predecessors.get(node, ()):
            if source not in relevant:
                relevant.add(source)
                frontier.append(source)
    return relevant

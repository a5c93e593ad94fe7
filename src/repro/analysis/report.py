"""Fragment hierarchy, termination certificates, and goal-directed pruning.

:func:`analyze` classifies a dependency set into the fragment hierarchy

    FULL  ⊂  WEAKLY_ACYCLIC  ⊂  JOINTLY_ACYCLIC  ⊂  STRATIFIED  ⊂  NONE

and, for every fragment except NONE, issues a :class:`TerminationCertificate`
whose :meth:`~TerminationCertificate.bounds` computes a *sufficient* chase
step/row bound from the start instance — a restricted chase of a certified
set provably reaches its fixpoint strictly inside that bound, so a derived
:class:`~repro.chase.budget.Budget` can never be the reason an implication
query answers UNKNOWN. GurevichL82's encodings are never certified (their
undecidability proof forces cyclic null creation), which is exactly the
division of labor: decisive verdicts where Fagin-style syntax permits them,
honest budgets where the paper says no syntax can.

Fragment facts used by the bound (all over the single relation):

* **FULL** — no existential variables: the chase invents no values, so the
  fixpoint lives inside ``domain(start)^arity``. Rank 0.
* **WEAKLY_ACYCLIC** — position-graph rank ``r`` is finite; a null created
  at a rank-``i`` position is a function of a *frontier* assignment drawn
  from positions of rank ``< i`` (each frontier position has a special edge
  into the null's position, forcing its rank lower), and the restricted
  chase's activity check fires at most once per frontier assignment per
  dependency. So value counts satisfy ``N_{i+1} <= N_i + d*E*N_i^V``.
* **JOINTLY_ACYCLIC** — the Krötzsch–Rudolph existential-dependency graph
  is acyclic; its longest path plays the role of the rank.
* **STRATIFIED** — the *productive* subset (never-firing dependencies
  removed, see :func:`repro.analysis.firing.never_fires`) falls in one of
  the fragments above; the removed dependencies hold in every database,
  so they change neither the chase nor the bound.

Every active restricted-chase firing adds at least one row (a TD firing
whose row already existed would not have passed the activity check; an EID
firing with fresh nulls adds a row containing them), so the row bound also
bounds the step count. ``+1`` margins account for ``ChaseStats.exhausted``
triggering at ``>=``.

:func:`prune_for_target` is the goal-directed half: it drops dependencies
that provably cannot influence *either* verdict — never-firing ones,
alpha-renamed duplicates, and dependencies entailed by the rest (checked
with a tiny bounded chase). Each removal preserves theory equivalence, so
PROVED and DISPROVED are both preserved: the pruned set's universal model
is hom-equivalent to the full set's over the same frozen core.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.firing import firing_graph, never_fires, strata_of
from repro.analysis.graph import MultiDiGraph
from repro.analysis.positions import (
    PositionEdge,
    build_position_graph,
    position_ranks,
    special_cycle_of,
)
from repro.chase.budget import Budget
from repro.dependencies.canonical import canonical_key
from repro.dependencies.classify import Dependency
from repro.kernel.joins import memoized


class Fragment(enum.Enum):
    """Termination fragment of a dependency set, most specific first."""

    FULL = "full-tgd"
    WEAKLY_ACYCLIC = "weakly-acyclic"
    JOINTLY_ACYCLIC = "jointly-acyclic"
    STRATIFIED = "stratified"
    NONE = "none"


#: Refuse to certify when the derived bound would exceed ~10^4000 —
#: comparing, serializing, and reporting such a bound costs more than it
#: protects, and a set that needs it should run budgeted anyway.
_MAX_BOUND_BITS = 14_000


@dataclass(frozen=True)
class TerminationCertificate:
    """A sufficient chase bound, as a closed form over the start instance.

    ``rank`` counts waves of value creation: 0 for FULL, the maximum
    position rank for WEAKLY_ACYCLIC, the existential-dependency depth
    for JOINTLY_ACYCLIC, and the productive subset's rank for STRATIFIED.
    """

    fragment: Fragment
    rank: int
    dependency_count: int
    arity: int
    max_universals: int
    max_existentials: int

    def bounds(
        self, start_values: int, start_rows: int
    ) -> Optional[Tuple[int, int]]:
        """``(max_steps, max_rows)`` sufficient for fixpoint, or None.

        None means the exact bound overflows :data:`_MAX_BOUND_BITS`;
        callers must then fall back to the ordinary budgeted path.
        """
        domain = max(1, int(start_values))
        per_firing = max(1, self.max_existentials)
        frontier = max(1, self.max_universals)
        for __ in range(self.rank):
            if domain.bit_length() * frontier > _MAX_BOUND_BITS:
                return None
            domain += self.dependency_count * per_firing * domain**frontier
        if domain.bit_length() * max(1, self.arity) > _MAX_BOUND_BITS:
            return None
        rows = max(domain ** self.arity if self.arity else 1, int(start_rows))
        return rows + 1, rows + 1

    def derived_budget(self, start_values: int, start_rows: int) -> Optional[Budget]:
        """A budget the certified chase cannot exhaust (no wall clock)."""
        bounds = self.bounds(start_values, start_rows)
        if bounds is None:
            return None
        max_steps, max_rows = bounds
        return Budget(max_steps=max_steps, max_rows=max_rows, max_seconds=None)


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the static analyzer knows about one dependency set."""

    fragment: Fragment
    weakly_acyclic: bool
    jointly_acyclic: bool
    certificate: Optional[TerminationCertificate]
    special_cycle: Optional[Tuple[PositionEdge, ...]]
    position_count: int
    regular_edge_count: int
    special_edge_count: int
    strata: Tuple[Tuple[int, ...], ...]
    never_firing: Tuple[int, ...]
    dependency_count: int

    @property
    def certified(self) -> bool:
        return self.certificate is not None

    def describe(self, attributes: Optional[Sequence[str]] = None) -> str:
        names = attributes or [str(i) for i in range(self.position_count)]
        lines = [
            f"fragment: {self.fragment.value}",
            (
                f"dependencies: {self.dependency_count}"
                f" ({len(self.never_firing)} never fire)"
            ),
            (
                f"position graph: {self.position_count} positions,"
                f" {self.regular_edge_count} regular /"
                f" {self.special_edge_count} special edges"
            ),
        ]
        if self.certificate is not None:
            lines.append(
                "termination: CERTIFIED"
                f" (rank {self.certificate.rank};"
                " chase reaches fixpoint within the derived budget)"
            )
        else:
            lines.append(
                "termination: NOT CERTIFIED"
                " (no syntactic guarantee; chase runs budgeted)"
            )
        if self.special_cycle:
            witness = "; ".join(
                edge.describe(names) for edge in self.special_cycle
            )
            lines.append(f"witness cycle: {witness}")
        strata = " | ".join(
            "{" + ",".join(str(i) for i in stratum) + "}"
            for stratum in self.strata
        )
        if strata:
            lines.append(f"strata: {strata}")
        return "\n".join(lines)


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


_ANALYSIS_CACHE: Dict[Tuple[Dependency, ...], AnalysisReport] = {}
_ANALYSIS_CACHE_MAX = 256


def analyze(dependencies: Sequence[Dependency]) -> AnalysisReport:
    """The memoized :class:`AnalysisReport` for a dependency tuple.

    Keyed structurally (``Dependency`` hashes by content), so repeated
    queries against one premise set — the batch-service hot path — pay
    for the analysis once.
    """
    return memoized(
        _ANALYSIS_CACHE, tuple(dependencies), _analyze, _ANALYSIS_CACHE_MAX
    )


def _analyze(key: Tuple[Dependency, ...]) -> AnalysisReport:
    dependencies = key
    position_graph = build_position_graph(dependencies)
    cycle = special_cycle_of(position_graph)
    weakly = cycle is None
    special_edges = sum(
        1
        for *__, data in position_graph.edges(data=True)
        if data.get("special")
    )
    regular_edges = position_graph.number_of_edges() - special_edges

    graph = firing_graph(dependencies)
    strata = strata_of(graph)
    never = tuple(
        index
        for index in range(len(dependencies))
        if not any(True for __ in graph.successors(index))
    ) if dependencies else ()

    depth = existential_depth(dependencies)
    jointly = depth is not None
    full = all(dependency.is_full() for dependency in dependencies)
    arity = dependencies[0].schema.arity if dependencies else 0
    max_universals = max(
        (len(d.universal_variables()) for d in dependencies), default=0
    )
    max_existentials = max(
        (len(d.existential_variables()) for d in dependencies), default=0
    )

    certificate: Optional[TerminationCertificate] = None
    fragment = Fragment.NONE
    rank = 0
    if full:
        fragment = Fragment.FULL
        rank = 0
    elif weakly:
        fragment = Fragment.WEAKLY_ACYCLIC
        rank = max(position_ranks(position_graph).values(), default=0)
    elif jointly:
        fragment = Fragment.JOINTLY_ACYCLIC
        rank = depth or 0
    elif never and len(never) < len(dependencies):
        productive = tuple(
            dependency
            for index, dependency in enumerate(dependencies)
            if index not in set(never)
        )
        sub = analyze(productive)
        if sub.certificate is not None:
            fragment = Fragment.STRATIFIED
            certificate = replace(sub.certificate, fragment=fragment)
    if fragment in (Fragment.FULL, Fragment.WEAKLY_ACYCLIC, Fragment.JOINTLY_ACYCLIC):
        certificate = TerminationCertificate(
            fragment=fragment,
            rank=rank,
            dependency_count=len(dependencies),
            arity=arity,
            max_universals=max_universals,
            max_existentials=max_existentials,
        )

    return AnalysisReport(
        fragment=fragment,
        weakly_acyclic=weakly,
        jointly_acyclic=jointly,
        certificate=certificate,
        special_cycle=tuple(cycle) if cycle else None,
        position_count=position_graph.number_of_nodes(),
        regular_edge_count=regular_edges,
        special_edge_count=special_edges,
        strata=strata,
        never_firing=never,
        dependency_count=len(dependencies),
    )


# -- goal-directed pruning ----------------------------------------------


@dataclass(frozen=True)
class PrunedDependency:
    """Provenance for one dropped dependency."""

    index: int
    name: str
    reason: str


@dataclass(frozen=True)
class QueryProgram:
    """A pruned program equivalent to the original set."""

    kept: Tuple[Dependency, ...]
    dropped: Tuple[PrunedDependency, ...]
    report: AnalysisReport
    kept_report: AnalysisReport

    @property
    def certificate(self) -> Optional[TerminationCertificate]:
        return self.kept_report.certificate

    def provenance(
        self, *, applied: bool, derived: Optional[Budget]
    ) -> Dict[str, object]:
        """JSON-safe analysis annotation for verdicts and cache entries."""
        return {
            "fragment": self.kept_report.fragment.value,
            "certified": self.certificate is not None,
            "applied": bool(applied),
            "pruned": len(self.dropped),
            "kept": len(self.kept),
            "strata": len(self.kept_report.strata),
            "dropped": [
                {"name": entry.name, "reason": entry.reason}
                for entry in self.dropped
            ],
            "derived_max_steps": derived.max_steps if derived else None,
            "derived_max_rows": derived.max_rows if derived else None,
        }


#: Entailment pruning chases every candidate against the rest; gate it to
#: small sets and a tiny budget so analysis stays cheap relative to the
#: query it serves.
_ENTAILMENT_MAX_DEPENDENCIES = 16
_ENTAILMENT_BUDGET = Budget(max_steps=256, max_rows=2048, max_seconds=None)

_PRUNE_CACHE: Dict[Tuple[Dependency, ...], QueryProgram] = {}
_PRUNE_CACHE_MAX = 256


def prune_for_target(
    dependencies: Sequence[Dependency], target: Optional[Dependency] = None
) -> QueryProgram:
    """An equivalent program with verdict-irrelevant dependencies dropped.

    Three both-verdict-preserving reductions, in order:

    1. **never-firing** dependencies (goal-directed: these are exactly
       the ones with no firing-graph path to the goal, see
       :func:`repro.analysis.firing.goal_relevant`);
    2. **duplicates** up to variable renaming (:func:`canonical_key`);
    3. **entailed** dependencies — a bounded chase proving the rest
       already implies a dependency makes the theory, hence its universal
       models and any goal check over them, identical without it.

    The result is target-independent at this single-relation granularity
    (the ``target`` parameter documents intent and keeps the signature
    stable if multi-relation reachability lands later), so it is cached
    per premise tuple.
    """
    del target
    return memoized(
        _PRUNE_CACHE, tuple(dependencies), _prune, _PRUNE_CACHE_MAX
    )


def _prune(key: Tuple[Dependency, ...]) -> QueryProgram:
    report = analyze(key)
    dropped: List[PrunedDependency] = []
    kept_indices: List[int] = []
    never = set(report.never_firing)
    seen_keys: Set[tuple] = set()
    for index, dependency in enumerate(key):
        name = getattr(dependency, "name", None) or f"dependency[{index}]"
        if index in never:
            dropped.append(PrunedDependency(index, name, "never-fires"))
            continue
        shape = canonical_key(dependency)
        if shape in seen_keys:
            dropped.append(PrunedDependency(index, name, "duplicate"))
            continue
        seen_keys.add(shape)
        kept_indices.append(index)

    if 2 <= len(kept_indices) <= _ENTAILMENT_MAX_DEPENDENCIES:
        # Lazy import: implication imports this module at top level.
        from repro.chase.implication import InferenceStatus, implies

        survivors: List[int] = []
        for position, index in enumerate(kept_indices):
            others = [
                key[other]
                for other in survivors + kept_indices[position + 1 :]
            ]
            if others:
                outcome = implies(
                    others,
                    key[index],
                    budget=_ENTAILMENT_BUDGET,
                    record_trace=False,
                    analysis="off",
                )
                if outcome.status is InferenceStatus.PROVED:
                    name = (
                        getattr(key[index], "name", None)
                        or f"dependency[{index}]"
                    )
                    dropped.append(
                        PrunedDependency(index, name, "entailed")
                    )
                    continue
            survivors.append(index)
        kept_indices = survivors

    kept = tuple(key[index] for index in kept_indices)
    kept_report = analyze(kept) if dropped else report
    return QueryProgram(
        kept=kept,
        dropped=tuple(sorted(dropped, key=lambda entry: entry.index)),
        report=report,
        kept_report=kept_report,
    )

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
* **WEAKLY_ACYCLIC** — position-graph rank ``r`` is finite (see
  :func:`repro.analysis.positions.position_facts`); a null created
  at a rank-``i`` position is a function of a *frontier* assignment drawn
  from positions of rank ``< i`` (each frontier position has a special edge
  into the null's position, forcing its rank lower), and the restricted
  chase's activity check fires at most once per frontier assignment per
  dependency. So value counts satisfy ``N_{i+1} <= N_i + d*E*N_i^V``.
* **JOINTLY_ACYCLIC** — the Krötzsch–Rudolph existential-dependency graph
  is acyclic; its longest path plays the role of the rank.
* **STRATIFIED** — the *productive* subset (never-firing, i.e. trivial,
  dependencies removed, see
  :meth:`repro.dependencies.eid.EmbeddedImplicationalDependency.is_trivial`)
  falls in one of the fragments above; the removed dependencies hold in
  every database, so they change neither the chase nor the bound.

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
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.positions import PositionEdge, position_facts
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
    never_firing: Tuple[int, ...]
    dependency_count: int

    @property
    def certified(self) -> bool:
        return self.certificate is not None

    @property
    def strata(self) -> Tuple[Tuple[int, ...], ...]:
        """The firing graph's condensation, in topological order.

        Each never-firing dependency is a singleton stratum, listed
        first in descending index order; the productive dependencies
        form one stratum. With one relation, never-firing is the only
        sound refinement of the dependency-to-dependency firing graph:
        any new row can take part in a match of any antecedent (a
        homomorphism may collapse every antecedent atom onto one row),
        so every productive dependency can wake every other.
        """
        never = set(self.never_firing)
        productive = tuple(
            index for index in range(self.dependency_count) if index not in never
        )
        return tuple((index,) for index in reversed(self.never_firing)) + (
            (productive,) if productive else ()
        )

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

    The Krötzsch–Rudolph existential-dependency graph has one node per
    existential variable ``z``. ``Ω(z)`` is the least position set
    containing ``z``'s conclusion positions (its *seed*) and closed
    under frontier propagation: if every antecedent position of a
    conclusion-occurring universal ``x`` lies in ``Ω(z)``, add ``x``'s
    conclusion positions. The edge ``z -> z'`` exists when ``z'``'s
    rule has a frontier variable whose antecedent positions (its
    *body*) all lie in ``Ω(z)``. Acyclic ⟺ jointly acyclic; the depth
    (longest path, in nodes) bounds the waves of null creation.

    That edge depends only on ``z``'s seed and on ``z'``'s rule, so the
    graph is built at that level instead. Its nodes are the distinct
    seeds and the distinct body sets of rules with existentials: seed
    ``S`` points at body set ``B`` when some body in ``B`` lies in
    ``Ω(S)``, and ``B`` points at the seeds of its rules' existentials.
    A variable path projects onto a seed path with as many seed nodes,
    and every seed path lifts back (each step is witnessed by a
    variable of the rule it passes through), so the cycles and the
    longest path in seed nodes are the variable graph's. One memoized
    iterative DFS finds both and stops at the first cycle.

    Positions are bitmasks. The edge tests cost O(distinct seeds ×
    rules × frontier), and each ``Ω`` at most arity + 1 passes over
    the frontier propagation steps, against the variable graph's
    O(existentials² × frontier) edge tests.
    """
    # Frontier propagation steps (body mask, head mask), and for each
    # distinct set of rule bodies the seed masks of its existentials.
    propagation: Set[Tuple[int, int]] = set()
    seeds_of: Dict[FrozenSet[int], Set[int]] = {}
    for dependency in dependencies:
        body: Dict[object, int] = {}
        head: Dict[object, int] = {}
        for atom in dependency.antecedents:
            for position, term in enumerate(atom):
                body[term] = body.get(term, 0) | 1 << position
        for atom in dependency.conclusions:
            for position, term in enumerate(atom):
                head[term] = head.get(term, 0) | 1 << position
        frontier = [variable for variable in head if variable in body]
        propagation.update((body[x], head[x]) for x in frontier)
        seeds = [mask for variable, mask in head.items() if variable not in body]
        if seeds:
            bodies = frozenset(body[x] for x in frontier)
            seeds_of.setdefault(bodies, set()).update(seeds)

    # Nodes: distinct seeds first, then body sets; a seed node counts 1
    # towards a path's length, a body-set node 0.
    seed_nodes = sorted({seed for seeds in seeds_of.values() for seed in seeds})
    seed_count = len(seed_nodes)
    seed_index = {seed: node for node, seed in enumerate(seed_nodes)}
    body_sets = list(seeds_of)
    successors: List[List[int]] = []
    for seed in seed_nodes:
        omega = seed
        changed = True
        while changed:
            changed = False
            for body_mask, head_mask in propagation:
                if body_mask & ~omega == 0 and head_mask & ~omega:
                    omega |= head_mask
                    changed = True
        successors.append(
            [
                seed_count + node
                for node, bodies in enumerate(body_sets)
                if any(body_mask & ~omega == 0 for body_mask in bodies)
            ]
        )
    for bodies in body_sets:
        successors.append([seed_index[seed] for seed in seeds_of[bodies]])

    depth = [0] * len(successors)
    state = [0] * len(successors)  # 0 unseen, 1 on the DFS path, 2 done
    for root in range(seed_count):
        if state[root]:
            continue
        state[root] = 1
        stack = [(root, iter(successors[root]))]
        while stack:
            node, pending = stack[-1]
            for successor in pending:
                if state[successor] == 1:
                    return None
                if state[successor] == 0:
                    state[successor] = 1
                    stack.append((successor, iter(successors[successor])))
                    break
            else:
                stack.pop()
                state[node] = 2
                depth[node] = (1 if node < seed_count else 0) + max(
                    (depth[successor] for successor in successors[node]),
                    default=0,
                )
    return max(depth, default=0)


_ANALYSIS_CACHE: Dict[Tuple[Dependency, ...], AnalysisReport] = {}
_ANALYSIS_CACHE_MAX = 256


def analyze(dependencies: Sequence[Dependency]) -> AnalysisReport:
    """The memoized :class:`AnalysisReport` for a dependency tuple.

    Keyed structurally (``Dependency`` hashes by content), so repeated
    queries against one premise set — the batch-service hot path — pay
    for the analysis once.
    """
    return _analysis(tuple(dependencies), None)


def _analysis(
    key: Tuple[Dependency, ...], fires: Optional[Sequence[bool]]
) -> AnalysisReport:
    """:func:`analyze`, given ``not is_trivial()`` per dependency when
    the caller already knows it (None: compute it on a miss)."""
    return memoized(
        _ANALYSIS_CACHE,
        key,
        lambda dependencies: _analyze(dependencies, fires),
        _ANALYSIS_CACHE_MAX,
    )


def _analyze(
    dependencies: Tuple[Dependency, ...], fires: Optional[Sequence[bool]]
) -> AnalysisReport:
    positions = position_facts(dependencies)
    if fires is None:
        fires = [not dependency.is_trivial() for dependency in dependencies]
    never = tuple(index for index, flag in enumerate(fires) if not flag)

    depth = existential_depth(dependencies)
    jointly = depth is not None
    full = all(dependency.is_full() for dependency in dependencies)

    certificate: Optional[TerminationCertificate] = None
    fragment = Fragment.NONE
    rank = 0
    if full:
        fragment = Fragment.FULL
        rank = 0
    elif positions.rank is not None:
        fragment = Fragment.WEAKLY_ACYCLIC
        rank = positions.rank
    elif jointly:
        fragment = Fragment.JOINTLY_ACYCLIC
        rank = depth or 0
    elif never and len(never) < len(dependencies):
        productive = tuple(
            dependency
            for index, dependency in enumerate(dependencies)
            if index not in set(never)
        )
        sub = _analysis(productive, (True,) * len(productive))
        if sub.certificate is not None:
            fragment = Fragment.STRATIFIED
            certificate = replace(sub.certificate, fragment=fragment)
    if fragment in (Fragment.FULL, Fragment.WEAKLY_ACYCLIC, Fragment.JOINTLY_ACYCLIC):
        certificate = TerminationCertificate(
            fragment=fragment,
            rank=rank,
            dependency_count=len(dependencies),
            arity=dependencies[0].schema.arity if dependencies else 0,
            max_universals=max(
                (len(d.universal_variables()) for d in dependencies), default=0
            ),
            max_existentials=max(
                (len(d.existential_variables()) for d in dependencies), default=0
            ),
        )

    return AnalysisReport(
        fragment=fragment,
        weakly_acyclic=positions.weakly_acyclic,
        jointly_acyclic=jointly,
        certificate=certificate,
        special_cycle=positions.special_cycle,
        position_count=positions.position_count,
        regular_edge_count=positions.regular_edge_count,
        special_edge_count=positions.special_edge_count,
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


#: Entailment pruning chases a candidate against the rest, under a tiny
#: budget, only when the rest is certified; the paper's encodings never
#: are, so pruning them runs no chase. The cap still bounds the pass on
#: large certified sets: one chase per kept premise, 16 at most.
_ENTAILMENT_MAX_DEPENDENCIES = 16
_ENTAILMENT_BUDGET = Budget(max_steps=256, max_rows=2048, max_seconds=None)

_PRUNE_CACHE: Dict[Tuple[Dependency, ...], QueryProgram] = {}
_PRUNE_CACHE_MAX = 256


def prune_for_target(dependencies: Sequence[Dependency]) -> QueryProgram:
    """An equivalent program with verdict-irrelevant dependencies dropped.

    Three both-verdict-preserving reductions, in order:

    1. **never-firing** (trivial) dependencies — with one relation these
       are exactly the ones with no firing-graph path to the goal (see
       :attr:`AnalysisReport.strata`);
    2. **duplicates** up to variable renaming (:func:`canonical_key`);
    3. **entailed** dependencies — a bounded chase proving the rest
       already implies a dependency makes the theory, hence its universal
       models and any goal check over them, identical without it. A
       candidate is tried only when the rest is certified: an
       uncertified program runs whole and budgeted anyway, so a drop
       there would change only provenance.

    The result is target-independent at this single-relation
    granularity, so it is cached per premise tuple. The cache keys on
    content, which ignores dependency names, so ``kept`` and the dropped
    names are rebuilt from the caller's own tuple by index.
    """
    given = tuple(dependencies)
    program = memoized(_PRUNE_CACHE, given, _prune, _PRUNE_CACHE_MAX)
    gone = {entry.index for entry in program.dropped}
    return replace(
        program,
        kept=tuple(
            dependency for index, dependency in enumerate(given) if index not in gone
        ),
        dropped=tuple(
            replace(entry, name=_name(given, entry.index)) for entry in program.dropped
        ),
    )


def _name(dependencies: Tuple[Dependency, ...], index: int) -> str:
    return dependencies[index].name or f"dependency[{index}]"


def _prune(key: Tuple[Dependency, ...]) -> QueryProgram:
    report = analyze(key)
    dropped: List[PrunedDependency] = []
    kept_indices: List[int] = []
    never = set(report.never_firing)
    seen_keys: Set[tuple] = set()
    for index, dependency in enumerate(key):
        if index in never:
            dropped.append(PrunedDependency(index, _name(key, index), "never-fires"))
            continue
        shape = canonical_key(dependency)
        if shape in seen_keys:
            dropped.append(PrunedDependency(index, _name(key, index), "duplicate"))
            continue
        seen_keys.add(shape)
        kept_indices.append(index)

    if 2 <= len(kept_indices) <= _ENTAILMENT_MAX_DEPENDENCIES:
        # Lazy import: implication imports this module at top level.
        from repro.chase.implication import InferenceStatus, implies

        survivors: List[int] = []
        for position, index in enumerate(kept_indices):
            others = tuple(
                key[other]
                for other in survivors + kept_indices[position + 1 :]
            )
            if others and _analysis(others, (True,) * len(others)).certified:
                outcome = implies(
                    others,
                    key[index],
                    budget=_ENTAILMENT_BUDGET,
                    record_trace=False,
                    analysis="off",
                )
                if outcome.status is InferenceStatus.PROVED:
                    dropped.append(
                        PrunedDependency(index, _name(key, index), "entailed")
                    )
                    continue
            survivors.append(index)
        kept_indices = survivors

    kept = tuple(key[index] for index in kept_indices)
    # Never-firing dependencies were dropped first, so all kept ones fire.
    kept_report = _analysis(kept, (True,) * len(kept)) if dropped else report
    return QueryProgram(
        kept=kept,
        dropped=tuple(sorted(dropped, key=lambda entry: entry.index)),
        report=report,
        kept_report=kept_report,
    )

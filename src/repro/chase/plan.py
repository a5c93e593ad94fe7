"""Compiled join plans and the chase kernel.

A generic backtracking search re-derives its join strategy on every
node: it recounts bound cells to pick the next atom, rebuilds column
probe patterns per candidate, and keys assignments on
:class:`Variable` objects through dict hashing. A dependency's
antecedent structure never changes, so all of that is decided
**once**:

* a :class:`JoinPlan` fixes, per dependency, an atom join order chosen
  by static analysis (shared-variable connectivity), flat integer
  *slots* for the variables, and per-atom precomputed probe/bind/check
  column lists — plus one such order per *pivot* atom for semi-naive
  delta seeding, and a precompiled extension plan for the conclusion
  atoms (the trigger-activity check);
* rows are *interned* through the instance's
  :class:`~repro.relational.values.InternTable` to tuples of dense
  ints, so row hashing, equality and index keys are integer operations
  (:class:`~repro.kernel.joins.KernelState` keeps the int-row inverted
  index in sync as the chase fires);
* a :class:`Dispatcher` routes each delta row straight to the
  ``(dependency, pivot)`` pairs whose within-atom equality pattern the
  row satisfies, instead of unifying every row against every atom of
  every dependency, and a per-dependency *evaluated* memo never
  re-checks a match across rounds (activity is monotone: a trigger once
  fired or found inactive stays inactive forever);
* the chase loop is delta-driven: round one's delta is the whole
  instance, which *is* the standard restricted chase, and every later
  round joins only matches that touch the rows the previous round
  added;
* within a round the pivot plans split old from delta rows (the
  semi-naive rule of Abiteboul, Hull & Vianu, *Foundations of
  Databases*, §13.1): for pivot ``p`` the atoms before ``p`` may match
  only rows outside the delta. A match whose first delta atom is
  ``q < p`` is found at pivot ``q`` anyway, so the rule drops only the
  copies the per-round ``seen`` set used to throw away — each match is
  enumerated once instead of once per delta atom. Pivots are seeded in
  order and index buckets are append-only during a run, so the ordered
  match list, and with it every firing sequence, trace and checkpoint,
  is the one the unsplit enumeration gives (pinned by
  ``tests/chase/test_firing_order.py``).

:meth:`ChaseSession.run` is the one chase loop and the one place a
:class:`~repro.chase.result.ChaseResult` is built. Fresh
(:func:`repro.chase.engine.chase`), resumed
(:func:`repro.chase.checkpoint.resume_implies`) and maintained
(:class:`repro.chase.maintain.MaintainedModel`) chases each call it once.

The row/step/walker primitives live in :mod:`repro.kernel.joins` — the
engine layer this module shares with the model checker
(:mod:`repro.chase.checkplan`) and homomorphism search
(:mod:`repro.relational.homplan`). ``KernelState`` and ``memoized``
are re-exported here for their existing importers.

The differential suites hold the kernel to the round-based generic
chase kept in ``tests/oracle``: same
:class:`~repro.chase.result.ChaseStatus`, replay-valid traces, and
final instances that agree up to null renaming (exactly, for full
dependency sets). Firing *order* inside a round may differ, which is
why they compare semantics, not step sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, AbstractSet, Optional, Sequence

from repro.chase.budget import ChaseStats
from repro.chase.result import ChaseResult, ChaseStatus, ChaseStep
from repro.dependencies.classify import Dependency
from repro.kernel.joins import (
    AtomStep,
    IntRow,
    KernelState,
    atom_equality_pattern,
    compile_steps,
    extend_matches,
    has_extension,
    memoized,
)
from repro.relational.instance import Instance
from repro.relational.values import NullFactory

if TYPE_CHECKING:
    from repro.chase.implication import ConclusionGoal


class PivotPlan:
    """A join order for the remaining atoms, seeded from one pivot atom.

    ``pattern`` is the pivot atom's within-atom equality pattern: column
    pairs a delta row must agree on to unify with the pivot at all —
    this is the delta-dispatch filter. ``binds`` loads the pivot row
    into the registers; ``steps`` joins the remaining antecedents, the
    ones declared before the pivot tagged
    :attr:`~repro.kernel.joins.AtomStep.old_only`.
    """

    __slots__ = ("pattern", "binds", "steps")

    def __init__(
        self,
        pattern: tuple[tuple[int, int], ...],
        binds: tuple[tuple[int, int], ...],
        steps: tuple[AtomStep, ...],
    ):
        self.pattern = pattern
        self.binds = binds
        self.steps = steps


class JoinPlan:
    """Everything about a dependency the chase needs, compiled once."""

    __slots__ = (
        "dependency",
        "n_slots",
        "n_universal",
        "binding_pairs",
        "existential_slots",
        "existential_variables",
        "antecedent_atom_slots",
        "conclusion_atom_slots",
        "activity_steps",
        "pivots",
    )

    def __init__(self, dependency: Dependency):
        self.dependency = dependency
        universals = sorted(dependency.universal_variables(), key=lambda v: v.name)
        existentials = sorted(
            dependency.existential_variables(), key=lambda v: v.name
        )
        slot_of = {variable: slot for slot, variable in enumerate(universals)}
        self.n_universal = len(universals)
        for variable in existentials:
            slot_of[variable] = len(slot_of)
        self.n_slots = len(slot_of)
        #: (name, universal slot) pairs in name order — the trace binding
        #: layout of :attr:`ChaseStep.bindings`.
        self.binding_pairs = tuple(
            (variable.name, slot_of[variable]) for variable in universals
        )
        self.existential_slots = tuple(
            slot_of[variable] for variable in existentials
        )
        self.existential_variables = tuple(existentials)

        antecedent_slots = [
            tuple(slot_of[variable] for variable in atom)
            for atom in dependency.antecedents
        ]
        #: Slot view of the antecedents in declaration order — the
        #: compiled model checker (:mod:`repro.chase.checkplan`) compiles
        #: its cold full-join order from these, sharing this plan's slot
        #: layout and conclusion-extension steps.
        self.antecedent_atom_slots = tuple(antecedent_slots)
        self.conclusion_atom_slots = tuple(
            tuple(slot_of[variable] for variable in atom)
            for atom in dependency.conclusions
        )

        # One compiled order per pivot atom (semi-naive seeding). Round
        # one seeds every pivot with the whole instance, so no separate
        # "cold" order is needed; the atoms before the pivot are tagged
        # old_only (the old/delta split).
        self.pivots = tuple(
            _compile_pivot(antecedent_slots, pivot)
            for pivot in range(len(antecedent_slots))
        )

        # The trigger-activity extension: join the conclusion atoms with
        # every universal slot already bound.
        self.activity_steps = compile_steps(
            list(self.conclusion_atom_slots),
            set(range(self.n_universal)),
        )


def _compile_pivot(
    antecedent_slots: list[tuple[int, ...]], pivot: int
) -> PivotPlan:
    slots = antecedent_slots[pivot]
    binds = []
    seen: set[int] = set()
    for column, slot in enumerate(slots):
        if slot not in seen:
            binds.append((column, slot))
            seen.add(slot)
    rest = antecedent_slots[:pivot] + antecedent_slots[pivot + 1 :]
    return PivotPlan(
        pattern=atom_equality_pattern(slots),
        binds=tuple(binds),
        steps=compile_steps(rest, seen, old_before=pivot),
    )


#: Compiled-plan memo. Keyed structurally (Dependency hashes by
#: structure), so worker processes that decode the same premises for
#: every payload of a batch still compile each dependency's plan once.
_PLAN_CACHE: dict[Dependency, JoinPlan] = {}
_PLAN_CACHE_MAX = 2048


def compile_plan(dependency: Dependency) -> JoinPlan:
    """The memoized :class:`JoinPlan` for ``dependency``."""
    return memoized(_PLAN_CACHE, dependency, JoinPlan, _PLAN_CACHE_MAX)


#: Per dependency *set*: the compiled plans plus their dispatcher.
#: Batch services chase hundreds of targets against one premise tuple;
#: this makes the per-``chase()`` setup a single dict hit.
_PROGRAM_CACHE: dict[tuple[Dependency, ...], tuple[tuple[JoinPlan, ...], "Dispatcher"]] = {}
_PROGRAM_CACHE_MAX = 512


def _build_program(
    key: tuple[Dependency, ...],
) -> tuple[tuple[JoinPlan, ...], "Dispatcher"]:
    plans = tuple(compile_plan(dependency) for dependency in key)
    return (plans, Dispatcher(plans))


def compile_program(
    dependencies: Sequence[Dependency],
) -> tuple[tuple[JoinPlan, ...], "Dispatcher"]:
    """Memoized ``(plans, dispatcher)`` for a dependency sequence."""
    return memoized(
        _PROGRAM_CACHE, tuple(dependencies), _build_program, _PROGRAM_CACHE_MAX
    )


class GoalPlan:
    """A compiled existence check: do ``atoms`` embed, extending ``partial``?

    Used for the implication goal ("has the frozen conclusion image
    appeared?") which :meth:`ChaseSession.run` evaluates after *every*
    firing — the kernel probes the int-row index instead of running a
    one-shot homomorphism search each time. Built once per run from a
    :class:`repro.chase.implication.ConclusionGoal`'s ``goal_atoms``
    and ``goal_partial``.
    """

    __slots__ = ("steps", "prebound", "n_slots")

    def __init__(self, atoms: Sequence[tuple], partial: dict):
        slot_of: dict = {}
        prebound: list[tuple[int, object]] = []
        for variable in sorted(partial, key=lambda v: v.name):
            slot_of[variable] = len(slot_of)
            prebound.append((slot_of[variable], partial[variable]))
        bound = set(range(len(slot_of)))
        for atom in atoms:
            for variable in atom:
                if variable not in slot_of:
                    slot_of[variable] = len(slot_of)
        self.n_slots = len(slot_of)
        self.prebound = tuple(prebound)
        self.steps = compile_steps(
            [tuple(slot_of[variable] for variable in atom) for atom in atoms],
            bound,
        )

    def registers(self, state: KernelState) -> list[int]:
        """Fresh registers with the partial assignment interned."""
        regs = [0] * self.n_slots
        intern = state.intern
        for slot, value in self.prebound:
            regs[slot] = intern(value)
        return regs


class Dispatcher:
    """Routes delta rows to the ``(plan, pivot)`` pairs they can wake.

    With a single relation and all-variable atoms, the only row-level
    discriminator is the pivot atom's within-atom equality ``pattern``
    (e.g. ``R(x, x, y)`` only unifies with rows whose first two cells
    agree). Distinct patterns are evaluated once per delta row and fan
    out to every subscribed pivot, instead of unifying the row against
    all dependencies x all pivot atoms.
    """

    __slots__ = ("patterns", "subscribers", "n_plans", "trivial")

    def __init__(self, plans: Sequence[JoinPlan]):
        pattern_ids: dict[tuple[tuple[int, int], ...], int] = {}
        self.patterns: list[tuple[tuple[int, int], ...]] = []
        #: pattern id -> [(plan index, pivot plan), ...]
        self.subscribers: list[list[tuple[int, PivotPlan]]] = []
        self.n_plans = len(plans)
        for plan_index, plan in enumerate(plans):
            for pivot_plan in plan.pivots:
                pattern = pivot_plan.pattern
                pattern_id = pattern_ids.get(pattern)
                if pattern_id is None:
                    pattern_id = len(self.patterns)
                    pattern_ids[pattern] = pattern_id
                    self.patterns.append(pattern)
                    self.subscribers.append([])
                self.subscribers[pattern_id].append((plan_index, pivot_plan))
        #: With no discriminating pattern anywhere, dispatch is a no-op:
        #: every delta row reaches every pivot, so the chase loop skips
        #: the per-row routing entirely.
        self.trivial = all(pattern == () for pattern in self.patterns)

    def seeds(
        self, delta: Sequence[IntRow]
    ) -> list[list[tuple[PivotPlan, IntRow]]]:
        """Per plan, the ``(pivot, delta row)`` seeds the round must join.

        Each distinct equality pattern is evaluated once per delta row;
        rows failing a pattern never reach its subscribed pivots.
        """
        per_plan: list[list[tuple[PivotPlan, IntRow]]] = [
            [] for __ in range(self.n_plans)
        ]
        patterns = self.patterns
        subscribers = self.subscribers
        for irow in delta:
            for pattern_id, pattern in enumerate(patterns):
                ok = True
                for left, right in pattern:
                    if irow[left] != irow[right]:
                        ok = False
                        break
                if not ok:
                    continue
                for plan_index, pivot_plan in subscribers[pattern_id]:
                    per_plan[plan_index].append((pivot_plan, irow))
        return per_plan

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Dispatcher patterns={len(self.patterns)} plans={self.n_plans}>"


#: The walker's delta argument that prunes nothing.
_NO_DELTA: frozenset = frozenset()


def _collect_matches(
    state: KernelState,
    plan: JoinPlan,
    seeds: Sequence[tuple[PivotPlan, IntRow]],
    evaluated: set[tuple[int, ...]],
) -> list[tuple[int, ...]]:
    """All new matches of ``plan`` over its dispatched seeds.

    Enumerated against the live instance *before* any firing (a
    trigger snapshot); deduplicated within the round
    (several pivots can land on one match) and against the cross-round
    ``evaluated`` memo (activity monotonicity makes old matches dead).

    This path keeps the unsplit enumeration (an empty delta set to the
    walker): the dispatcher's seeds are row-major, so a match's first
    occurrence here is at its first delta *row*, not its first delta
    atom, and the old/delta rule would reorder firings. Only programs
    with a within-atom repeat such as ``R(x, x, y)`` take this path.
    """
    out: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    regs = [0] * plan.n_slots
    n_universal = plan.n_universal
    for pivot_plan, irow in seeds:
        for column, slot in pivot_plan.binds:
            regs[slot] = irow[column]
        extend_matches(
            state, pivot_plan.steps, 0, regs, n_universal, seen, out, _NO_DELTA
        )
    if evaluated:
        return [key for key in out if key not in evaluated]
    return out


def _collect_matches_all(
    state: KernelState,
    plan: JoinPlan,
    delta: Sequence[IntRow],
    delta_rows: AbstractSet[IntRow],
    evaluated: set[tuple[int, ...]],
) -> list[tuple[int, ...]]:
    """:func:`_collect_matches` without the dispatch layer, pivot-major.

    Used when the dispatcher is trivial (no pivot has a discriminating
    equality pattern): every delta row reaches every pivot anyway, so
    seed tuples are never materialized. ``delta_rows`` is ``delta`` as
    a set; the walker keeps the atoms before each pivot off it (the
    old/delta split in the module docstring), which finds each match
    once, at its first delta atom, and returns the list the unsplit
    enumeration would. That holds because every delta row is in the
    instance, as a chase frontier always is.
    """
    out: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    regs = [0] * plan.n_slots
    n_universal = plan.n_universal
    for pivot_plan in plan.pivots:
        binds = pivot_plan.binds
        steps = pivot_plan.steps
        for irow in delta:
            for column, slot in binds:
                regs[slot] = irow[column]
            extend_matches(
                state, steps, 0, regs, n_universal, seen, out, delta_rows
            )
    if evaluated:
        return [key for key in out if key not in evaluated]
    return out


@dataclass(frozen=True)
class Suspension:
    """Where a compiled chase stopped on BUDGET_EXHAUSTED, mid-round.

    ``delta`` is the interrupted round's frontier, ``plan_index`` the
    dependency whose triggers were firing, ``remaining`` the universal
    keys of that dependency's trigger snapshot not yet fired (None:
    re-collect them) and ``added`` the rows the round had added so far
    (the next round's delta).
    """

    delta: tuple[IntRow, ...]
    plan_index: int = 0
    remaining: Optional[tuple[tuple[int, ...], ...]] = None
    added: tuple[IntRow, ...] = ()


class ChaseSession:
    """A suspendable compiled chase over one live instance.

    Owns the compiled program, the instance's cached kernel view and
    the per-dependency ``evaluated`` memos, so the chase can *resume*:
    :meth:`run` takes an explicit delta frontier instead of assuming
    "the whole instance is new". After a run terminates, seeding a
    later run with just-inserted rows continues the same semi-naive
    computation — the memos make every previously evaluated trigger a
    set hit, and surviving derived rows keep their triggers inactive.

    The memos encode activity monotonicity, which holds only under
    insertion. A deletion can re-activate triggers (their conclusion
    witness may be gone), so deleting callers must call
    :meth:`clear_memos` before re-running — see
    :class:`repro.chase.maintain.MaintainedModel` for the DRed-style
    delete protocol built on top.

    With ``record_derivations`` the session logs, per firing,
    ``(plan index, universal-slot key, added int rows)``. Antecedent
    atoms bind only universal slots, so each record's *support* rows
    are recoverable from the key alone via the plan's
    ``antecedent_atom_slots`` — enough to trace the derivation cone of
    any deleted row without storing it eagerly.
    """

    __slots__ = (
        "instance",
        "dependencies",
        "plans",
        "dispatcher",
        "state",
        "fresh",
        "evaluated",
        "record_derivations",
        "derivations",
        "suspended",
    )

    def __init__(
        self,
        working: Instance,
        dependencies: Sequence[Dependency],
        *,
        fresh: NullFactory,
        record_derivations: bool = False,
    ):
        self.instance = working
        self.dependencies = tuple(dependencies)
        self.plans, self.dispatcher = compile_program(self.dependencies)
        self.state = working.kernel_view()
        self.fresh = fresh
        # Per-dependency memo of universal-slot keys already fired or
        # rejected: activity is monotone under insertion, so neither
        # can ever fire again while only inserts happen.
        self.evaluated: list[set[tuple[int, ...]]] = [
            set() for __ in self.plans
        ]
        self.record_derivations = record_derivations
        #: ``(plan index, universal-slot key) -> added int rows`` in
        #: firing order (dict order); keyed so a trigger re-fired after
        #: a deletion replaces its old record instead of duplicating it.
        self.derivations: dict[
            tuple[int, tuple[int, ...]], tuple[IntRow, ...]
        ] = {}
        #: Where the last run stopped on BUDGET_EXHAUSTED (None
        #: otherwise): passing it back as :meth:`run`'s ``resume``
        #: continues with exactly the firings the run would have made
        #: next.
        self.suspended: Optional[Suspension] = None

    def clear_memos(self) -> None:
        """Forget trigger evaluations (required after any deletion)."""
        for memo in self.evaluated:
            memo.clear()

    def run(
        self,
        delta: Sequence[IntRow],
        stats: ChaseStats,
        *,
        goal: Optional[ConclusionGoal] = None,
        trace: Optional[list[ChaseStep]] = None,
        resume: Optional[Suspension] = None,
    ) -> ChaseResult:
        """Chase to a fixpoint, the goal or the budget from ``delta``.

        Delta-driven rounds: a fresh chase seeds the frontier with the
        whole instance, later rounds take only the rows the previous
        round added. Per dependency, matches touching the delta are
        enumerated through the compiled pivot plans, deduplicated
        against the cross-round ``evaluated`` memo, then fired in order
        with a live activity re-check, so traces replay.

        ``goal`` is compiled into one :class:`GoalPlan` for the run and
        checked before the first firing and after every firing. Fired
        steps are appended to ``trace`` when one is given (None records
        nothing; ``stats`` count every step either way).

        With ``resume`` (a previous run's :attr:`suspended`, the
        frontier then being that run's ``delta``), the first round
        picks up mid-round where the suspended run stopped, so the
        firing sequence is the one an uninterrupted run makes. A
        resumed run whose ``stats`` are already exhausted fires
        nothing.
        """
        state = self.state
        working = self.instance
        values = state.values
        fresh = self.fresh
        dependencies = self.dependencies
        plans = self.plans
        evaluated = self.evaluated
        record_derivations = self.record_derivations
        derivations = self.derivations
        trivial_dispatch = self.dispatcher.trivial
        goal_steps: Optional[tuple[AtomStep, ...]] = None
        goal_regs: list[int] = []
        if goal is not None:
            goal_plan = GoalPlan(goal.goal_atoms, goal.goal_partial)
            goal_steps = goal_plan.steps
            goal_regs = goal_plan.registers(state)

        self.suspended = None
        delta = list(delta)
        first_plan, carried, added_this_round = 0, None, []
        status = ChaseStatus.TERMINATED
        if goal_steps is not None and has_extension(
            state, goal_steps, 0, goal_regs
        ):
            status = ChaseStatus.GOAL_REACHED
        elif resume is not None:
            first_plan = resume.plan_index
            carried = resume.remaining
            added_this_round = list(resume.added)
            if stats.exhausted(len(working)):
                self.suspended = resume
                status = ChaseStatus.BUDGET_EXHAUSTED
        while delta and status is ChaseStatus.TERMINATED:
            seeds_per_plan = (
                None if trivial_dispatch else self.dispatcher.seeds(delta)
            )
            delta_rows = set(delta) if trivial_dispatch else _NO_DELTA
            for plan_index, (dependency, plan, memo) in enumerate(
                zip(dependencies, plans, evaluated)
            ):
                if plan_index < first_plan:
                    continue
                if carried is not None:
                    # The suspended plan's unfired trigger snapshot.
                    matches, carried = list(carried), None
                elif seeds_per_plan is None:
                    matches = _collect_matches_all(
                        state, plan, delta, delta_rows, memo
                    )
                else:
                    seeds = seeds_per_plan[plan_index]
                    if not seeds:
                        continue
                    matches = _collect_matches(state, plan, seeds, memo)
                if not matches:
                    continue
                activity_steps = plan.activity_steps
                n_slots = plan.n_slots
                binding_pairs = plan.binding_pairs
                existential_slots = plan.existential_slots
                conclusion_atom_slots = plan.conclusion_atom_slots
                regs = [0] * n_slots
                for position, key in enumerate(matches):
                    # ``matches`` is already deduplicated within the
                    # round and filtered against the memo by
                    # _collect_matches*, so every key here is new.
                    memo.add(key)
                    regs[: len(key)] = key
                    # Live activity re-check: an earlier firing this
                    # round may have satisfied the conclusion already.
                    if has_extension(state, activity_steps, 0, regs):
                        continue
                    # Fire: one fresh null per existential variable,
                    # shared across all conclusion atoms.
                    for slot in existential_slots:
                        null = fresh()
                        regs[slot] = state.intern(null)
                    added_rows = []
                    fired_irows: list[IntRow] = []
                    for atom_slots in conclusion_atom_slots:
                        irow = tuple(regs[slot] for slot in atom_slots)
                        row = state.add_interned(irow)
                        if row is not None:
                            added_rows.append(row)
                            added_this_round.append(irow)
                            fired_irows.append(irow)
                    if record_derivations and fired_irows:
                        derivations[(plan_index, key)] = tuple(fired_irows)
                    stats.note_step()
                    for __ in added_rows:
                        stats.note_row()
                    if trace is not None:
                        trace.append(
                            ChaseStep(
                                dependency=dependency,
                                bindings=tuple(
                                    (name, values[regs[slot]])
                                    for name, slot in binding_pairs
                                ),
                                added_rows=tuple(added_rows),
                            )
                        )
                    if goal_steps is not None and has_extension(
                        state, goal_steps, 0, goal_regs
                    ):
                        status = ChaseStatus.GOAL_REACHED
                        break
                    if stats.exhausted(len(working)):
                        self.suspended = Suspension(
                            delta=tuple(delta),
                            plan_index=plan_index,
                            remaining=tuple(matches[position + 1 :]),
                            added=tuple(added_this_round),
                        )
                        status = ChaseStatus.BUDGET_EXHAUSTED
                        break
                if status is not ChaseStatus.TERMINATED:
                    break
            delta, added_this_round, first_plan = added_this_round, [], 0
        return ChaseResult(
            status=status,
            instance=working,
            steps=trace if trace is not None else [],
            stats=stats,
        )

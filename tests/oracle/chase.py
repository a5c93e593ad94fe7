"""The round-based reference chase, and implication testing on it.

The engine is round-based and fair: each round scans every dependency and
fires the triggers found. A fixpoint (a round that adds nothing) means the
instance satisfies every dependency — for the restricted chase the result
is then a *universal model* of the input under the dependencies.

Three trigger disciplines:

* ``STANDARD`` — the restricted chase: fire only *active* triggers,
  re-checking activity against the live instance right before firing;
* ``SEMI_NAIVE`` — the restricted chase enumerating only triggers that
  touch a row added in the previous round;
* ``OBLIVIOUS`` — fire every trigger exactly once, active or not.

The production chase (:func:`repro.chase.engine.chase`) is the restricted
chase on the compiled kernel. It must agree with ``STANDARD`` and
``SEMI_NAIVE`` here on statuses, replay-valid traces and final instances
up to null renaming; firing order inside a round (hence trace step order
and null labels) may differ.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional, Sequence

from repro.chase.budget import Budget
from repro.chase.implication import (
    ConclusionGoal,
    InferenceOutcome,
    InferenceStatus,
    _freeze_target,
)
from repro.chase.result import ChaseResult, ChaseStatus, ChaseStep
from repro.dependencies.classify import Dependency
from repro.dependencies.template import is_variable
from repro.relational.instance import Instance
from repro.relational.values import NullFactory

from tests.oracle.homomorphism import find_homomorphism
from tests.oracle.trigger import (
    Trigger,
    fire_trigger,
    iter_triggers,
    iter_triggers_touching,
)


class ChaseVariant(enum.Enum):
    """Which trigger discipline to use."""

    STANDARD = "standard"
    OBLIVIOUS = "oblivious"
    SEMI_NAIVE = "semi_naive"


#: A predicate the caller wants to become true; the chase stops when it does.
Goal = Callable[[Instance], bool]


def chase(
    instance: Instance,
    dependencies: Sequence[Dependency],
    *,
    budget: Optional[Budget] = None,
    variant: ChaseVariant = ChaseVariant.STANDARD,
    goal: Optional[Goal] = None,
    inplace: bool = False,
    record_trace: bool = True,
    null_factory: Optional[NullFactory] = None,
) -> ChaseResult:
    """Chase ``instance`` with ``dependencies`` under ``variant``.

    Same contract as :func:`repro.chase.engine.chase`: the status is
    ``TERMINATED`` (fixpoint), ``GOAL_REACHED`` or ``BUDGET_EXHAUSTED``,
    and unless ``inplace`` is set the input is left untouched.
    """
    working = instance if inplace else instance.copy()
    budget = budget if budget is not None else Budget()
    stats = budget.start()
    fresh = null_factory if null_factory is not None else NullFactory()
    trace: list[ChaseStep] = []
    fired: set[Trigger] = set()

    def finish(status: ChaseStatus) -> ChaseResult:
        return ChaseResult(status=status, instance=working, steps=trace, stats=stats)

    goal_atoms = getattr(goal, "goal_atoms", None)
    if goal_atoms is not None:
        # An implication goal (repro.chase.implication.ConclusionGoal):
        # the compiled kernel turns it into its own probe, and the
        # reference chase evaluates it with the reference search.
        partial = goal.goal_partial

        def goal(instance: Instance) -> bool:
            return (
                find_homomorphism(
                    goal_atoms, instance, partial=partial, flexible=is_variable
                )
                is not None
            )

    if goal is not None and goal(working):
        return finish(ChaseStatus.GOAL_REACHED)

    if variant is ChaseVariant.SEMI_NAIVE:
        return _chase_semi_naive(
            working, dependencies, stats, fresh, trace, goal, record_trace, finish
        )

    while True:
        progress = False
        for dependency in dependencies:
            # Snapshot the triggers for this dependency: firing mutates the
            # instance, and iterating homomorphisms over a moving target is
            # not safe. Activity is re-checked against the live instance
            # right before each firing.
            for trigger in list(iter_triggers(working, dependency)):
                if variant is ChaseVariant.STANDARD:
                    if not trigger.is_active(working):
                        continue
                else:
                    if trigger in fired:
                        continue
                    fired.add(trigger)
                step = fire_trigger(working, trigger, fresh)
                stats.note_step()
                for __ in step.added_rows:
                    stats.note_row()
                progress = True
                if record_trace:
                    trace.append(step)
                if goal is not None and goal(working):
                    return finish(ChaseStatus.GOAL_REACHED)
                if stats.exhausted(len(working)):
                    return finish(ChaseStatus.BUDGET_EXHAUSTED)
        if not progress:
            return finish(ChaseStatus.TERMINATED)


def _chase_semi_naive(
    working: Instance,
    dependencies: Sequence[Dependency],
    stats,
    fresh: NullFactory,
    trace: list[ChaseStep],
    goal: Optional[Goal],
    record_trace: bool,
    finish,
) -> ChaseResult:
    """Round-based restricted chase, enumerating only delta-touching triggers.

    Correctness rests on two monotonicity facts: (1) every match is first
    possible in the round its newest row was added, so scanning matches
    touching the previous round's delta covers all new triggers; (2) a
    trigger found inactive stays inactive forever (adding rows only adds
    conclusion extensions), so never revisiting old matches loses nothing.
    """
    delta: set = set(working.rows)
    while delta:
        added_this_round: set = set()
        for dependency in dependencies:
            for trigger in list(
                iter_triggers_touching(working, dependency, delta)
            ):
                if not trigger.is_active(working):
                    continue
                step = fire_trigger(working, trigger, fresh)
                added_this_round.update(step.added_rows)
                stats.note_step()
                for __ in step.added_rows:
                    stats.note_row()
                if record_trace:
                    trace.append(step)
                if goal is not None and goal(working):
                    return finish(ChaseStatus.GOAL_REACHED)
                if stats.exhausted(len(working)):
                    return finish(ChaseStatus.BUDGET_EXHAUSTED)
        delta = added_this_round
    return finish(ChaseStatus.TERMINATED)


def implies(
    dependencies: Sequence[Dependency],
    target: Dependency,
    *,
    budget: Optional[Budget] = None,
    variant: ChaseVariant = ChaseVariant.STANDARD,
    record_trace: bool = True,
    analysis: str = "auto",
) -> InferenceOutcome:
    """Test ``dependencies ⊨ target`` by chasing the frozen target here.

    Mirrors :func:`repro.chase.implication.implies`, analyzer included:
    with ``analysis`` other than ``"off"`` a certified premise set is
    pruned and chased under the derived budget when the caller gave no
    budget (or asked for ``"derive"``). The certified bound counts
    restricted-chase firings, so ``OBLIVIOUS`` always keeps the
    caller's budget.
    """
    working, frozen = _freeze_target(target)
    run_dependencies = list(dependencies)
    run_budget = budget
    provenance: Optional[dict] = None
    if analysis != "off":
        from repro.analysis.report import prune_for_target

        program = prune_for_target(tuple(dependencies))
        derived = None
        if (
            program.certificate is not None
            and variant is not ChaseVariant.OBLIVIOUS
            and (budget is None or analysis == "derive")
        ):
            derived = program.certificate.derived_budget(
                len(working.active_domain()), len(working)
            )
        if derived is not None:
            run_dependencies = list(program.kept)
            run_budget = derived
        provenance = program.provenance(applied=derived is not None, derived=derived)
    result = chase(
        working,
        run_dependencies,
        budget=run_budget,
        variant=variant,
        goal=ConclusionGoal(target, frozen),
        record_trace=record_trace,
        inplace=True,
    )
    status = {
        ChaseStatus.GOAL_REACHED: InferenceStatus.PROVED,
        ChaseStatus.TERMINATED: InferenceStatus.DISPROVED,
    }.get(result.status, InferenceStatus.UNKNOWN)
    return InferenceOutcome(
        status=status,
        target=target,
        chase_result=result,
        counterexample=result.instance if status is InferenceStatus.DISPROVED else None,
        frozen_assignment=frozen,
        analysis=provenance,
    )

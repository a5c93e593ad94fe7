"""Checkpoint and resume for budget-exhausted compiled chases.

Without a checkpoint, a budget-exhausted chase throws away all its
work: a retry under a bigger budget re-chases from row zero. This
module captures the suspended :class:`~repro.chase.plan.ChaseSession`
state — interned rows, the unprocessed delta frontier, the
per-dependency ``evaluated`` memos, the null counter and the cumulative
stats — into a plain :class:`ChaseCheckpoint` value, and rebuilds an
equivalent session later so the retry *resumes*. The result cache
stores the encoded checkpoint next to the UNKNOWN entry, whose budget
antichain only decides *whether* a request needs a retry; the
scheduler then resumes it like any other dispatched query
(:mod:`repro.service.scheduler`).

The capture point is a BUDGET_EXHAUSTED result. :meth:`ChaseSession.run`
then leaves a :class:`~repro.chase.plan.Suspension` on the session, and
its two checkpointing callers (:func:`repro.chase.engine.chase` with
``checkpoint=True``, and :func:`resume_implies` here) hand the session
to :func:`capture_checkpoint`. The suspension holds the interrupted
round's delta, the dependency whose triggers were firing, the rest of
that dependency's trigger snapshot, and the rows the round had added.
The memos contain exactly the universal-slot keys already processed
(``memo.add`` happens per key, before firing), and earlier rounds are
fully memoized. Intern ids survive serialization because
:class:`~repro.relational.values.InternTable` assigns ids in
first-seen order and never reclaims them — re-interning the captured
value list in order reproduces identical ids, so the captured int rows,
suspension and memo keys stay valid verbatim, and re-adding the rows in
captured order rebuilds identical join indexes.

Resume equivalence: the resumed run continues mid-round with the very
firings the interrupted run would have made next, and seeds
*cumulative* stats (prior steps, prior rows, prior elapsed). So
resuming under budget ``B`` fires, decides and exhausts exactly where
one uninterrupted run under ``B`` would on the step and row axes (the
wall-clock axis is inherently non-deterministic either way); the order
matters, since the restricted chase's verdict within a budget depends
on firing order. ``tests/chase/test_checkpoint.py`` asserts resumed
verdict, steps and instance ≡ the from-scratch chase.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.chase.budget import Budget, ChaseStats
from repro.chase.implication import (
    ConclusionGoal,
    InferenceOutcome,
    _freeze_target,
    inference_outcome,
)
from repro.chase.plan import ChaseSession, Suspension
from repro.chase.result import ChaseStatus, ChaseStep
from repro.dependencies.classify import Dependency
from repro.kernel.joins import IntRow
from repro.relational.instance import Instance
from repro.relational.values import NullFactory, Value

#: Bump when the captured shape changes; decoders reject other versions.
#: Version 1 captured no mid-round position (its frontier was the
#: round's delta plus the rows the round had added); it still decodes
#: and resumes correctly, just not firing-for-firing exactly.
CHECKPOINT_VERSION = 2


@dataclass
class ChaseCheckpoint:
    """A suspended compiled chase, self-contained enough to resume.

    ``values`` is the intern table in id order; ``rows``, the
    ``suspension`` and the ``evaluated`` memo keys are expressed in
    those ids.
    ``target`` is the implication target whose frozen antecedents the
    captured instance embeds (None for plain goal-less chases, which
    currently have no resume caller).
    """

    dependencies: tuple[Dependency, ...]
    target: Optional[Dependency]
    values: tuple[Value, ...]
    rows: tuple[IntRow, ...]
    #: Where the run stopped: the interrupted round's frontier and its
    #: mid-round position.
    suspension: Suspension
    #: Per dependency (in ``dependencies`` order): the universal-slot
    #: keys already fired or rejected.
    evaluated: tuple[tuple[tuple[int, ...], ...], ...]
    next_null: int
    steps: int
    rows_added: int
    elapsed: float
    #: The prior run's trace steps when it recorded them (so a resumed
    #: PROVED outcome still carries a full replayable certificate);
    #: None when tracing was off — resuming then keeps tracing off, a
    #: partial trace would not replay.
    trace: Optional[tuple[ChaseStep, ...]] = None

    @property
    def row_count(self) -> int:
        """Captured instance size (serialization guards key on this)."""
        return len(self.rows)


def capture_checkpoint(
    session: ChaseSession,
    *,
    stats: ChaseStats,
    trace: Optional[Sequence[ChaseStep]] = None,
    target: Optional[Dependency] = None,
) -> ChaseCheckpoint:
    """Snapshot a session that just stopped on BUDGET_EXHAUSTED."""
    state = session.state
    suspension = session.suspended
    if suspension is None:
        # Defensive: without a captured position, resuming must re-seed
        # from every row (correct, just slower — the memos still skip
        # all processed matches).
        suspension = Suspension(delta=tuple(state.rows_list))
    return ChaseCheckpoint(
        dependencies=session.dependencies,
        target=target,
        values=tuple(state.values),
        rows=tuple(state.rows_list),
        suspension=suspension,
        evaluated=tuple(
            tuple(sorted(memo)) for memo in session.evaluated
        ),
        next_null=session.fresh.next_label,
        steps=stats.steps,
        rows_added=stats.rows_added,
        elapsed=stats.elapsed_seconds,
        trace=tuple(trace) if trace is not None else None,
    )


def rebuild_session(
    checkpoint: ChaseCheckpoint, schema
) -> tuple[Instance, ChaseSession]:
    """Reconstruct the working instance and session from a checkpoint.

    Values are re-interned in captured id order, so every captured int
    row and memo key refers to the same value it did at capture time.
    """
    working = Instance(schema)
    table = working.intern_table
    for value in checkpoint.values:
        table.intern(value)
    state = working.kernel_view()
    for irow in checkpoint.rows:
        state.add_interned(irow)
    session = ChaseSession(
        working,
        checkpoint.dependencies,
        fresh=NullFactory(checkpoint.next_null),
    )
    if len(checkpoint.evaluated) != len(session.plans):
        raise ValueError(
            "checkpoint memo count does not match its dependency count"
        )
    if not 0 <= checkpoint.suspension.plan_index < max(1, len(session.plans)):
        raise ValueError("checkpoint suspends at a dependency it does not have")
    session.evaluated = [set(keys) for keys in checkpoint.evaluated]
    return working, session


def resume_implies(
    checkpoint: ChaseCheckpoint,
    *,
    budget: Optional[Budget] = None,
) -> InferenceOutcome:
    """Continue a suspended implication test under a (bigger) budget.

    The resumed run charges the checkpoint's spent steps, rows and
    elapsed time against the new budget, so its verdict matches one
    uninterrupted run under that budget. If the new budget also runs
    out, the UNKNOWN outcome carries a fresh checkpoint, so retries
    chain. The run traces exactly when the checkpoint carries a trace:
    it extends that prefix, so a resumed PROVED replays from the start.
    """
    target = checkpoint.target
    if target is None:
        raise ValueError("checkpoint carries no implication target")
    __, frozen = _freeze_target(target)
    __, session = rebuild_session(checkpoint, target.schema)
    stats = ChaseStats(
        budget=budget if budget is not None else Budget(),
        steps=checkpoint.steps,
        rows_added=checkpoint.rows_added,
        started_at=time.monotonic() - checkpoint.elapsed,
    )
    trace = list(checkpoint.trace) if checkpoint.trace is not None else None
    result = session.run(
        checkpoint.suspension.delta,
        stats,
        goal=ConclusionGoal(target, frozen),
        trace=trace,
        resume=checkpoint.suspension,
    )
    if result.status is ChaseStatus.BUDGET_EXHAUSTED:
        result.checkpoint = capture_checkpoint(
            session, stats=stats, trace=trace, target=target
        )
    return inference_outcome(result, target, frozen)

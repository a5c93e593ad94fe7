"""Chase run results: status, trace and the chased instance.

A :class:`ChaseResult` is the complete record of a run. Its trace (a list
of :class:`ChaseStep`) is a *replayable certificate*: feeding the steps
back through :func:`repro.chase.engine.apply_step` on the original input
must reproduce the final instance, which is how the reduction's direction
(A) proofs are machine-verified.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.chase.checkpoint import ChaseCheckpoint

from repro.chase.budget import ChaseStats
from repro.dependencies.classify import Dependency
from repro.relational.instance import Instance, Row
from repro.relational.values import Value


class ChaseStatus(enum.Enum):
    """How a chase run ended."""

    #: Fixpoint reached: no active trigger remains. The result is a
    #: universal model of (input + dependencies).
    TERMINATED = "terminated"

    #: The caller's goal predicate became true; the chase stopped early.
    GOAL_REACHED = "goal_reached"

    #: The budget ran out before a fixpoint or goal. Nothing is decided.
    BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(frozen=True)
class ChaseStep:
    """One trigger firing: which dependency, at which match, adding what.

    ``bindings`` covers the dependency's universal variables (by name);
    ``added_rows`` are the conclusion rows actually inserted (existential
    variables already replaced by fresh nulls).
    """

    dependency: Dependency
    bindings: tuple[tuple[str, Value], ...]
    added_rows: tuple[Row, ...]

    def describe(self) -> str:
        """Human-readable one-liner for traces and logs."""
        name = getattr(self.dependency, "name", None) or "dependency"
        pairs = ", ".join(f"{var}={value}" for var, value in self.bindings)
        return f"fire {name} at [{pairs}] adding {len(self.added_rows)} row(s)"


@dataclass
class ChaseResult:
    """Everything a chase run produced."""

    status: ChaseStatus
    instance: Instance
    steps: list[ChaseStep] = field(default_factory=list)
    stats: Optional[ChaseStats] = None
    #: Suspended kernel state, captured only when the run ended
    #: BUDGET_EXHAUSTED *and* the caller asked for it (``checkpoint=True``
    #: on :func:`repro.chase.engine.chase`). A covering-budget retry can
    #: resume from here instead of re-chasing from row zero.
    checkpoint: Optional["ChaseCheckpoint"] = None

    @property
    def terminated(self) -> bool:
        """True when the run reached a fixpoint."""
        return self.status is ChaseStatus.TERMINATED

    @property
    def step_count(self) -> int:
        """Number of trigger firings (the stats count them, traced or not)."""
        if self.stats is not None:
            return self.stats.steps
        return len(self.steps)

    def describe(self) -> str:
        """A short summary suitable for experiment logs."""
        summary = (
            f"{self.status.value}: {len(self.instance)} rows after "
            f"{self.step_count} steps"
        )
        if self.stats is not None:
            summary += f" ({self.stats.describe()})"
        return summary

"""Implication testing via the chase.

To decide whether a finite set ``D`` of dependencies logically implies a
dependency ``d`` (the paper's *inference problem*), freeze ``d``'s
antecedents into a canonical database, chase it with ``D``, and watch for
``d``'s conclusion:

* the conclusion becomes derivable  →  **PROVED** (sound for finite and
  unrestricted semantics alike; the chase trace is the certificate);
* the chase reaches a fixpoint without it  →  **DISPROVED** — the chased
  instance is a finite universal model satisfying ``D`` and violating
  ``d``, a counterexample under both semantics;
* the budget runs out first  →  **UNKNOWN** — which, by the paper's Main
  Theorem, no algorithm can always avoid.

For *full* dependencies the chase terminates, so the procedure is a
decision procedure there; undecidability lives entirely in the embedded
case.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.chase.budget import Budget
from repro.chase.engine import chase
from repro.chase.result import ChaseResult, ChaseStatus
from repro.dependencies.classify import Dependency
from repro.dependencies.template import Variable, is_variable
from repro.kernel.backend import resolve_join_backend
from repro.relational.homplan import find_homomorphism
from repro.relational.instance import Instance
from repro.relational.values import Value


class InferenceStatus(enum.Enum):
    """Three-valued outcome of an implication test.

    ``FAILED`` is an *operational* fourth value, never produced by the
    chase itself: the serving layer reports it for a query whose
    execution was quarantined after repeatedly crashing worker
    processes (see :mod:`repro.service.scheduler`). It asserts nothing
    about ``D |= d`` and is never cached.
    """

    PROVED = "proved"
    DISPROVED = "disproved"
    UNKNOWN = "unknown"
    FAILED = "failed"


@dataclass
class InferenceOutcome:
    """The result of one ``D ⊨ d`` test, with certificates.

    * ``chase_result`` — the full run; when PROVED its trace derives the
      frozen conclusion, replayable via :func:`repro.chase.engine.replay`.
    * ``counterexample`` — when DISPROVED, a finite database satisfying
      ``D`` but violating ``d``.
    * ``frozen_assignment`` — the universal-variable freezing used, so
      certificates can be checked independently.
    """

    status: InferenceStatus
    target: Dependency
    chase_result: Optional[ChaseResult] = None
    counterexample: Optional[Instance] = None
    frozen_assignment: Optional[dict[Variable, Value]] = None
    #: For FAILED outcomes only: what went wrong, operator-readable.
    error: Optional[str] = None
    #: Static-analysis provenance (JSON-safe dict from
    #: :meth:`repro.analysis.report.QueryProgram.provenance`): the
    #: fragment the premise set fell into, whether a termination
    #: certificate was issued, and whether pruning and the derived
    #: budget were actually applied to this run.
    analysis: Optional[dict] = None
    #: Which join backend (``"native"`` or ``"python"``) produced this
    #: outcome — provenance for mixed-backend caches and bug reports
    #: (the two backends are held to identical verdicts by the
    #: differential suites, so a disagreement is diagnostic gold).
    join_backend: Optional[str] = None

    @property
    def proved(self) -> bool:
        """True when the implication was established."""
        return self.status is InferenceStatus.PROVED

    @property
    def disproved(self) -> bool:
        """True when a counterexample was produced."""
        return self.status is InferenceStatus.DISPROVED

    def describe(self) -> str:
        """One-line summary for logs."""
        parts = [self.status.value]
        if self.chase_result is not None:
            parts.append(self.chase_result.describe())
        return " | ".join(parts)


def _freeze_target(target: Dependency) -> tuple[Instance, dict[Variable, Value]]:
    """Freeze the target's antecedents into a canonical instance."""
    from repro.relational.values import Const

    assignment: dict[Variable, Value] = {}
    for variable in sorted(target.universal_variables(), key=lambda v: v.name):
        assignment[variable] = Const(("frozen", variable.name))
    instance = Instance(
        target.schema,
        (
            tuple(assignment[variable] for variable in atom)
            for atom in target.antecedents
        ),
    )
    return instance, assignment


def conclusion_satisfied(
    instance: Instance,
    target: Dependency,
    frozen: dict[Variable, Value],
) -> bool:
    """Does ``instance`` contain the target's conclusion at the frozen match?"""
    witness = find_homomorphism(
        target.conclusions,
        instance,
        partial=frozen,
        flexible=is_variable,
    )
    return witness is not None


class ConclusionGoal:
    """The chase goal: the target's conclusion at the frozen match.

    :meth:`repro.chase.plan.ChaseSession.run` compiles ``goal_atoms``
    and ``goal_partial`` into one int-index probe per run and evaluates
    it after every firing. Calling the goal is ``conclusion_satisfied``
    (for ad-hoc callers and the reference engines).
    """

    __slots__ = ("target", "goal_atoms", "goal_partial")

    def __init__(self, target: Dependency, frozen: dict[Variable, Value]):
        self.target = target
        self.goal_atoms = target.conclusions
        self.goal_partial = frozen

    def __call__(self, instance: Instance) -> bool:
        return conclusion_satisfied(instance, self.target, self.goal_partial)


#: What each way a goal-directed chase can stop says about ``D ⊨ d``.
_VERDICTS = {
    ChaseStatus.GOAL_REACHED: InferenceStatus.PROVED,
    ChaseStatus.TERMINATED: InferenceStatus.DISPROVED,
    ChaseStatus.BUDGET_EXHAUSTED: InferenceStatus.UNKNOWN,
}


def inference_outcome(
    result: ChaseResult,
    target: Dependency,
    frozen: dict[Variable, Value],
    *,
    analysis: Optional[dict] = None,
) -> InferenceOutcome:
    """The verdict a chase of the frozen target reached, with certificates.

    Shared by :func:`implies` and
    :func:`repro.chase.checkpoint.resume_implies`: a terminated chase's
    instance is the DISPROVED counterexample.
    """
    status = _VERDICTS[result.status]
    return InferenceOutcome(
        status=status,
        target=target,
        chase_result=result,
        counterexample=(
            result.instance if status is InferenceStatus.DISPROVED else None
        ),
        frozen_assignment=frozen,
        analysis=analysis,
        join_backend=resolve_join_backend(),
    )


def implies(
    dependencies: Sequence[Dependency],
    target: Dependency,
    *,
    budget: Optional[Budget] = None,
    record_trace: bool = True,
    checkpoint: bool = False,
    analysis: str = "auto",
) -> InferenceOutcome:
    """Test whether ``dependencies ⊨ target`` by chasing the frozen target.

    ``checkpoint`` asks the kernel to attach the suspended
    chase state to an UNKNOWN outcome's ``chase_result.checkpoint``; a
    covering-budget retry can then resume via
    :func:`repro.chase.checkpoint.resume_implies`.

    ``analysis`` controls the static analyzer (:mod:`repro.analysis`):

    * ``"auto"`` (default) — annotate the outcome with analysis
      provenance always; when the (pruned) premise set carries a
      termination certificate **and** the caller supplied no budget,
      chase the pruned program to fixpoint under the derived budget —
      UNKNOWN then becomes impossible. A caller-supplied budget is
      honored exactly as before (starvation tests, checkpoint flows).
    * ``"derive"`` — apply the certified path even over an explicit
      budget (the service sets this per-query when the HTTP client
      sent no budget of its own).
    * ``"off"`` — pre-analyzer behavior, no annotation; also what the
      analyzer itself uses for its internal entailment checks.
    """
    working, frozen = _freeze_target(target)
    goal = ConclusionGoal(target, frozen)
    run_dependencies = list(dependencies)
    run_budget = budget
    run_checkpoint = checkpoint
    provenance: Optional[dict] = None
    if analysis != "off":
        from repro.analysis.report import prune_for_target

        program = prune_for_target(tuple(dependencies))
        derived = None
        certificate = program.certificate
        if certificate is not None and (budget is None or analysis == "derive"):
            derived = certificate.derived_budget(
                len(working.active_domain()), len(working)
            )
        if derived is not None:
            # Certified: the pruned program reaches fixpoint strictly
            # inside the derived bound, so no checkpoint can ever be
            # needed and UNKNOWN cannot occur.
            run_dependencies = list(program.kept)
            run_budget = derived
            run_checkpoint = False
        provenance = program.provenance(
            applied=derived is not None, derived=derived
        )
    # The start is a fresh frozen database never reused afterwards, so
    # the chase may mutate it directly instead of paying a defensive
    # copy.
    result = chase(
        working,
        run_dependencies,
        budget=run_budget,
        goal=goal,
        record_trace=record_trace,
        inplace=True,
        checkpoint=run_checkpoint,
    )
    return inference_outcome(result, target, frozen, analysis=provenance)


def implies_all(
    dependencies: Sequence[Dependency],
    targets: Sequence[Dependency],
    *,
    budget: Optional[Budget] = None,
) -> list[InferenceOutcome]:
    """Run :func:`implies` against each target, sharing the budget spec."""
    return [implies(dependencies, target, budget=budget) for target in targets]

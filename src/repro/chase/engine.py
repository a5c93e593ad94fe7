"""The chase proper: the restricted chase, and replaying its certificates.

The restricted (standard) chase repeatedly finds an *active trigger* — a
match of some dependency's antecedents with no extension covering its
conclusion — and repairs it by adding the conclusion with fresh labelled
nulls for the existential variables. A fixpoint means the instance
satisfies every dependency, and the result is then a *universal model*
of the input under the dependencies, which is what makes chase-based
implication testing sound and complete on terminating runs.

:func:`chase` builds one :class:`~repro.chase.plan.ChaseSession` over
the start instance and runs it once: per-dependency join plans over
interned integer rows with delta-indexed trigger dispatch. The only
goal is an implication's frozen conclusion
(:class:`~repro.chase.implication.ConclusionGoal`), compiled into the
kernel's per-firing probe. The differential suites hold it to the
round-based generic chase kept in ``tests/oracle`` — same statuses,
replay-valid traces, and final instances equal up to null renaming;
firing order inside a round (and hence trace step order and null
labels) may differ.

The engine never raises on divergence: it stops when the
:class:`~repro.chase.budget.Budget` is spent and says so in the result
status. :func:`replay` and :func:`apply_step` are the certificate
checker: they re-apply a recorded trace step by step, verifying each
step against the dependency it claims to fire.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.chase.budget import Budget
from repro.chase.plan import ChaseSession
from repro.chase.result import ChaseResult, ChaseStatus, ChaseStep
from repro.dependencies.classify import Dependency
from repro.dependencies.template import Variable, is_variable
from repro.errors import VerificationError
from repro.relational.homomorphism import apply_assignment
from repro.relational.instance import Instance, Row
from repro.relational.values import LabeledNull, NullFactory, Value

if TYPE_CHECKING:
    from repro.chase.implication import ConclusionGoal


def chase(
    instance: Instance,
    dependencies: Sequence[Dependency],
    *,
    budget: Optional[Budget] = None,
    goal: Optional[ConclusionGoal] = None,
    inplace: bool = False,
    record_trace: bool = True,
    null_factory: Optional[NullFactory] = None,
    checkpoint: bool = False,
) -> ChaseResult:
    """Chase ``instance`` with ``dependencies``.

    Returns a :class:`~repro.chase.result.ChaseResult` whose status is
    ``TERMINATED`` (fixpoint), ``GOAL_REACHED`` (the ``goal``'s
    conclusion image appeared) or ``BUDGET_EXHAUSTED``. Unless
    ``inplace`` is set the input instance is left untouched.

    ``record_trace`` keeps the full list of fired steps (the replayable
    certificate); disable it for large benchmark runs. The stats count
    every step either way.

    ``checkpoint`` attaches a
    :class:`repro.chase.checkpoint.ChaseCheckpoint` of the suspended
    run to a BUDGET_EXHAUSTED result, so a covering-budget retry can
    resume instead of restarting.
    """
    working = instance if inplace else instance.copy()
    stats = (budget if budget is not None else Budget()).start()
    session = ChaseSession(
        working,
        dependencies,
        fresh=null_factory if null_factory is not None else NullFactory(),
    )
    trace: Optional[list[ChaseStep]] = [] if record_trace else None
    result = session.run(session.state.rows_list, stats, goal=goal, trace=trace)
    if checkpoint and result.status is ChaseStatus.BUDGET_EXHAUSTED:
        from repro.chase.checkpoint import capture_checkpoint

        result.checkpoint = capture_checkpoint(
            session,
            stats=stats,
            trace=trace,
            target=goal.target if goal is not None else None,
        )
    return result


def apply_step(instance: Instance, step: ChaseStep, *, verify: bool = True) -> None:
    """Replay a recorded chase step onto ``instance`` (in place).

    With ``verify`` (the default) the step is checked before being applied:

    * the bindings must send every antecedent atom to a row already present
      in the instance (i.e. they are a genuine trigger), and
    * the added rows must match the conclusion atoms under the bindings,
      with a consistent choice for each existential variable. Conclusion
      images already present in the instance need not (but may) be listed,
      so ``added_rows`` can honestly record only the genuinely new rows.

    Raises :class:`~repro.errors.VerificationError` on any mismatch. This
    is the checker behind the reduction's machine-verified direction (A)
    proofs.
    """
    dependency = step.dependency
    assignment: dict[Variable, Value] = {
        Variable(name): value for name, value in step.bindings
    }
    if verify:
        for atom in dependency.antecedents:
            row = apply_assignment(atom, assignment, flexible=is_variable)
            if any(is_variable(term) for term in row):
                raise VerificationError(
                    f"step bindings leave antecedent {atom} partially unbound"
                )
            if row not in instance:
                raise VerificationError(
                    f"step is not a trigger: antecedent image {row} missing"
                )
        _verify_added_rows(instance, dependency, assignment, step.added_rows)
    instance.add_all(step.added_rows)


def match_conclusion_rows(
    dependency: Dependency,
    assignment: dict[Variable, Value],
    added_rows: Sequence[Row],
    *,
    strict: bool = False,
) -> tuple[set[Row], set[Row], dict[Variable, Value]]:
    """Match ``added_rows`` against the conclusion atoms under ``assignment``.

    Walks the conclusion atoms in firing order, consuming added rows as it
    goes: an atom with unbound existential variables must be witnessed by
    the next added row (which fixes those existentials, consistently across
    atoms); a fully bound atom either consumes the next added row (when it
    matches) or was satisfied before the firing. Returns
    ``(produced, required, witnesses)``: the rows this step introduced,
    the conclusion images it relied on already being present, and the
    values the added rows assigned to the existential variables.

    This single walk backs both the replay verifier (``strict=True``:
    raise :class:`~repro.errors.VerificationError` on any malformed step)
    and the certificate slicer (``strict=False``: best effort, malformed
    steps fail later at replay) — keeping their notions of "what a step
    needs" identical by construction.
    """
    extended = dict(assignment)
    produced: set[Row] = set()
    required: set[Row] = set()
    witnesses: dict[Variable, Value] = {}
    pointer = 0
    for atom in dependency.conclusions:
        if any(variable not in extended for variable in atom):
            # Unbound existentials: their values come from the added row.
            if pointer >= len(added_rows):
                if strict:
                    raise VerificationError(
                        f"no added row witnesses the existential conclusion {atom}"
                    )
                continue
            row = added_rows[pointer]
            if len(row) != len(atom):
                if strict:
                    raise VerificationError("conclusion row has the wrong arity")
                continue
            for variable, value in zip(atom, row):
                bound = extended.setdefault(variable, value)
                if bound != value:
                    if strict:
                        raise VerificationError(
                            f"inconsistent value for {variable} in added rows"
                        )
                    break
                if variable not in assignment:
                    witnesses.setdefault(variable, value)
            else:
                produced.add(row)
                pointer += 1
            continue
        row = apply_assignment(atom, extended, flexible=is_variable)
        if pointer < len(added_rows) and added_rows[pointer] == row:
            produced.add(row)
            pointer += 1
        elif row not in produced:
            # Not listed as added: the firing relied on it being present.
            required.add(row)
    if pointer != len(added_rows) and strict:
        raise VerificationError(
            "step lists added rows that no conclusion atom produces"
        )
    return produced, required, witnesses


def _verify_added_rows(
    instance: Instance,
    dependency: Dependency,
    assignment: dict[Variable, Value],
    added_rows: Sequence[Row],
) -> None:
    """Check ``added_rows`` against the conclusions; raise on mismatch.

    Beyond the structural walk of :func:`match_conclusion_rows`:

    * every conclusion image the step did not list must already be in the
      instance — ``added_rows`` may honestly omit only already-present
      rows;
    * every existential witness must be a *fresh* labelled null: pairwise
      distinct and absent from the pre-step instance. Without this a
      forged step could bind an existential to an existing value (or
      identify two existentials) and "derive" facts the dependency does
      not entail — certificates from untrusted sources (a shared result
      cache, a file on disk) must not verify in that case. The bindings
      are restricted to the dependency's universal variables first, so a
      forged step cannot smuggle an existential binding past the witness
      checks through ``step.bindings``.
    """
    universals = dependency.universal_variables()
    restricted = {
        variable: value
        for variable, value in assignment.items()
        if variable in universals
    }
    produced, required, witnesses = match_conclusion_rows(
        dependency, restricted, added_rows, strict=True
    )
    del produced
    for row in required:
        if row not in instance:
            raise VerificationError(
                f"conclusion image {row} is missing from the added rows"
            )
    if len(set(witnesses.values())) != len(witnesses):
        raise VerificationError(
            "distinct existential variables share a witness value"
        )
    arity = instance.schema.arity
    for variable, value in witnesses.items():
        if not isinstance(value, LabeledNull):
            raise VerificationError(
                f"existential witness for {variable} is {value!r}, "
                "not a fresh labelled null"
            )
        if any(instance.rows_with(column, value) for column in range(arity)):
            raise VerificationError(
                f"existential witness {value!r} already occurs in the instance"
            )


def replay(
    start: Instance, steps: Iterable[ChaseStep], *, verify: bool = True
) -> Instance:
    """Replay a whole trace from ``start``, returning the final instance."""
    working = start.copy()
    for step in steps:
        apply_step(working, step, verify=verify)
    return working

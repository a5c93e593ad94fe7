"""Model checking: ``holds_in``/``find_violation`` on join plans.

"Does this database satisfy this dependency?" is the dominant cost of
DISPROVED verdicts: verifying a counterexample re-model-checks every
dependency, the reduction's direction (B) checks a candidate database
against every ``Di(r)``, and the bounded finite-counterexample search
calls ``find_violation`` inside its repair loop thousands of times.

This module compiles the check onto the same machinery the chase kernel
uses, sharing its structural plan cache:

* the dependency's :class:`~repro.chase.plan.JoinPlan` supplies the
  name-sorted integer variable slots, the interned-row layout, and the
  precompiled conclusion-extension steps (``activity_steps`` — exactly
  the trigger-activity probe, which *is* the conclusion-extension check
  of model checking);
* a :class:`CheckPlan` adds the one thing model checking needs that the
  chase does not: a *cold* most-constrained-first join order over the
  antecedent atoms starting from no bound slots (the chase always seeds
  from a pivot row; the checker enumerates from scratch);
* the kernel-owned :func:`repro.kernel.joins.violation_walk` backtracks
  over that order against a :class:`~repro.chase.plan.KernelState`'s
  int-row inverted index and **early-exits** at the first antecedent
  match with no conclusion extension — `holds_in` never enumerates more
  matches than it must (and runs natively when the compiled join
  backend is active);
* a :class:`ModelChecker` shares one ``KernelState`` across many checks
  of the same instance (one interning pass per database, not one per
  dependency), which is the shape of every hot caller: verify a
  counterexample against a whole dependency set, model-check one
  finite-search candidate against ``D`` and the target, direction (B)'s
  database against every ``Di(r)``.

One body serves :class:`~repro.dependencies.template.TemplateDependency`
and :class:`~repro.dependencies.eid.EmbeddedImplicationalDependency` (a
TD is the EID special case with a one-atom conclusion conjunction), so
the two semantics cannot drift. The seeded differential suite
(``tests/chase/test_checker_differential.py``) holds the verdicts to the
generic search kept in ``tests/oracle``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.chase.plan import JoinPlan, compile_plan
from repro.kernel.joins import (
    AtomStep,
    KernelState,
    compile_steps,
    memoized,
    violation_walk,
)
from repro.dependencies.template import Variable
from repro.relational.instance import Instance, Row

class CheckPlan:
    """A dependency's compiled model-check: cold join + extension probe.

    Wraps the structurally cached :class:`~repro.chase.plan.JoinPlan`
    (slot layout, conclusion-extension ``activity_steps``) and adds the
    cold antecedent join order. Compiled once per dependency structure.
    """

    __slots__ = ("plan", "antecedent_steps", "universal_variables")

    def __init__(self, dependency):
        plan = compile_plan(dependency)
        self.plan: JoinPlan = plan
        #: Full join over the antecedents with nothing pre-bound — the
        #: model checker has no pivot row to seed from.
        self.antecedent_steps: tuple[AtomStep, ...] = compile_steps(
            list(plan.antecedent_atom_slots), set()
        )
        #: Universal variables in slot order (0..n_universal-1): the
        #: witness dict layout.
        self.universal_variables: tuple[Variable, ...] = tuple(
            sorted(dependency.universal_variables(), key=lambda v: v.name)
        )


#: Compiled-check memo, keyed structurally like the kernel's plan cache
#: (the inner :class:`JoinPlan` is shared with the chase through
#: :func:`repro.chase.plan.compile_plan`).
_CHECK_CACHE: dict = {}
_CHECK_CACHE_MAX = 2048


def compile_check(dependency) -> CheckPlan:
    """The memoized :class:`CheckPlan` for ``dependency``."""
    return memoized(_CHECK_CACHE, dependency, CheckPlan, _CHECK_CACHE_MAX)


def _find_violation_in_state(dependency, state: KernelState) -> Optional[dict]:
    """Compiled ``find_violation`` against an existing kernel state.

    The walk itself (first antecedent match with no conclusion
    extension, witness left in the registers) is kernel-owned —
    :func:`repro.kernel.joins.violation_walk` — so it runs on whichever
    join backend the process resolved.
    """
    check = compile_check(dependency)
    plan = check.plan
    regs = [0] * plan.n_slots
    if violation_walk(
        state, check.antecedent_steps, 0, regs, plan.activity_steps
    ):
        values = state.values
        return {
            variable: values[regs[slot]]
            for slot, variable in enumerate(check.universal_variables)
        }
    return None


def find_violation(dependency, instance: Instance) -> Optional[dict]:
    """A violating antecedent assignment of ``dependency``, or None.

    Runs on the instance's cached kernel view
    (:meth:`~repro.relational.instance.Instance.kernel_view`), so
    repeated one-shot calls on one database pay the interning pass
    once; :class:`ModelChecker` remains the batch-of-dependencies
    convenience wrapper.
    """
    return _find_violation_in_state(dependency, instance.kernel_view())


def holds_in(dependency, instance: Instance) -> bool:
    """Does ``instance`` satisfy ``dependency``?"""
    return find_violation(dependency, instance) is None


class ModelChecker:
    """Model-check many dependencies against one instance, sharing state.

    The instance's rows are interned into a :class:`KernelState`
    **once** (lazily, on the first query) and
    reuses it for every subsequent check — the shape of every hot
    caller: :func:`repro.chase.modelcheck.satisfies_all`, counterexample
    verification, direction (B)'s database-vs-every-``Di(r)`` sweep, and
    the finite-model search's repair loop.

    Mutating the instance between queries — through :meth:`add` or any
    out-of-band ``instance.add``/``instance.discard`` — is fully
    supported: the checks run on the instance's *subscribed*
    kernel view (:meth:`~repro.relational.instance.Instance.kernel_view`),
    which the instance's own mutation hooks keep synchronized, so
    staleness is structurally impossible. (The previous design cached a
    detached :class:`KernelState` and detected out-of-band mutation by
    row *count*, which an equal-count discard+add defeats — the
    mutation epoch, ``instance.epoch``, now changes on every mutation
    and the differential suite pins the discard+add case.)
    """

    __slots__ = ("instance",)

    def __init__(self, instance: Instance):
        self.instance = instance

    def _kernel_state(self) -> KernelState:
        return self.instance.kernel_view()

    def add(self, row: Row) -> bool:
        """Insert ``row``; return True when it was genuinely new.

        Plain :meth:`Instance.add` — the arity check runs on every
        path, and the instance's mutation hook keeps the kernel view
        (if one exists yet) synchronized.
        """
        return self.instance.add(row)

    def find_violation(self, dependency) -> Optional[dict]:
        """A violating antecedent assignment of ``dependency``, or None."""
        return _find_violation_in_state(dependency, self._kernel_state())

    def holds_in(self, dependency) -> bool:
        """Does the instance satisfy ``dependency``?"""
        return self.find_violation(dependency) is None

    def satisfies_all(self, dependencies: Iterable) -> bool:
        """Does the instance satisfy every dependency? (early exit)"""
        return all(
            self.find_violation(dependency) is None
            for dependency in dependencies
        )

    def all_violations(
        self, dependencies: Sequence
    ) -> list[tuple[object, dict]]:
        """Every violated dependency with one witnessing assignment."""
        violations: list[tuple[object, dict]] = []
        for dependency in dependencies:
            witness = self.find_violation(dependency)
            if witness is not None:
                violations.append((dependency, witness))
        return violations

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ModelChecker rows={len(self.instance)}>"

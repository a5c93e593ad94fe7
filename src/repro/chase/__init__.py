"""The chase engine (system S3).

The chase is the standard inference tool for tuple-generating dependencies:
repeatedly find an *active trigger* (a homomorphism of some dependency's
antecedents into the instance with no extension covering its conclusion)
and repair it by adding the conclusion with fresh labelled nulls for the
existential variables.

For **full** TDs the chase always terminates and decides implication. For
**embedded** TDs it may diverge — the paper proves no algorithm can decide
implication — so every entry point takes an explicit
:class:`~repro.chase.budget.Budget` and reports three-valued outcomes with
machine-checkable certificates (a chase trace for PROVED, a finite
counterexample database for DISPROVED).
"""

from repro.chase.budget import Budget, ChaseStats
from repro.chase.checkplan import CheckPlan, ModelChecker, compile_check
from repro.chase.engine import apply_step, chase
from repro.chase.plan import JoinPlan, KernelState, compile_plan, compile_program
from repro.chase.finite_models import (
    search_finite_counterexample,
    search_exhaustive,
    search_random,
)
from repro.chase.implication import (
    InferenceOutcome,
    InferenceStatus,
    implies,
    implies_all,
)
from repro.chase.modelcheck import all_violations, satisfies_all
from repro.chase.result import ChaseResult, ChaseStatus, ChaseStep

__all__ = [
    "Budget",
    "ChaseStats",
    "chase",
    "JoinPlan",
    "KernelState",
    "CheckPlan",
    "ModelChecker",
    "compile_plan",
    "compile_program",
    "compile_check",
    "apply_step",
    "ChaseResult",
    "ChaseStatus",
    "ChaseStep",
    "InferenceOutcome",
    "InferenceStatus",
    "implies",
    "implies_all",
    "satisfies_all",
    "all_violations",
    "search_finite_counterexample",
    "search_random",
    "search_exhaustive",
]

"""Finite counterexample search.

Under the *finite* ("true database") semantics, ``D ⊭ d`` is witnessed by a
finite database satisfying ``D`` and violating ``d``. When the chase
diverges, such a witness may still exist — Fagin et al. (1981) showed the
finite and unrestricted semantics genuinely differ for TDs, and the paper
proves both versions undecidable. This module provides two bounded,
incomplete searchers for such witnesses:

* :func:`search_exhaustive` — enumerate every instance over small typed
  domains, smallest first (complete up to its size bound, exponential);
* :func:`search_random` — a randomized bounded-domain chase: repair
  violations by choosing existential witnesses among *existing* domain
  values (folding the instance back on itself) or occasionally minting a
  fresh value, restarting on failure.

Either search returning an instance is a **proof** of non-implication (the
witness is model-checked before being returned); returning ``None`` means
nothing was found within bounds — consistent with undecidability.
"""

from __future__ import annotations

import itertools
import random
import time
from typing import Optional, Sequence

from repro.chase.checkplan import ModelChecker
from repro.chase.implication import _freeze_target
from repro.dependencies.classify import Dependency
from repro.dependencies.template import Variable
from repro.relational.instance import Instance
from repro.relational.values import Const, Value


def search_exhaustive(
    dependencies: Sequence[Dependency],
    target: Dependency,
    *,
    domain_size: int = 2,
    max_candidates: int = 100_000,
) -> Optional[Instance]:
    """Enumerate all instances over ``domain_size`` values per column.

    Candidate row spaces larger than ``max_candidates`` subsets are
    refused (returns None) rather than attempted. Instances are tried
    smallest-first, so the returned counterexample is minimum-size for the
    given domains. Each candidate is model-checked through one shared
    :class:`~repro.chase.checkplan.ModelChecker` (the target filter and
    the full dependency sweep reuse a single interned kernel state).
    """
    schema = target.schema
    row_space_size = domain_size ** schema.arity
    if row_space_size > 60 or 2 ** row_space_size > max_candidates:
        return None  # enumeration would be astronomically large
    typed = target.is_typed() and all(
        dependency.is_typed() for dependency in dependencies
    )
    if typed:
        # Disjoint per-column domains (the paper's typing restriction).
        domains = [
            [Const(("dom", column, index)) for index in range(domain_size)]
            for column in range(schema.arity)
        ]
    else:
        # Untyped dependencies move values between columns, so every
        # column must draw from one shared domain.
        shared = [Const(("dom", index)) for index in range(domain_size)]
        domains = [shared for __ in range(schema.arity)]
    row_space = [tuple(row) for row in itertools.product(*domains)]
    for size in range(1, len(row_space) + 1):
        for rows in itertools.combinations(row_space, size):
            candidate = Instance(schema, rows)
            model = ModelChecker(candidate)
            if model.find_violation(target) is None:
                continue
            if model.satisfies_all(dependencies):
                return candidate
    return None


def _existential_candidates(
    instance: Instance,
    column: int,
    fresh_budget: dict[int, int],
    max_fresh_per_column: int,
) -> list[Value]:
    """Values an existential variable in ``column`` may take."""
    candidates: list[Value] = sorted(
        instance.column_values(column), key=repr
    )
    used = fresh_budget.get(column, 0)
    if used < max_fresh_per_column:
        candidates.append(Const(("fm-fresh", column, used)))
    return candidates


def search_random(
    dependencies: Sequence[Dependency],
    target: Dependency,
    *,
    seed: int = 0,
    restarts: int = 50,
    max_repairs: int = 200,
    max_rows: int = 60,
    max_fresh_per_column: int = 3,
    max_seconds: float = 10.0,
) -> Optional[Instance]:
    """Randomized bounded-domain chase for a finite counterexample.

    Each attempt starts from the frozen antecedents of ``target`` and
    repeatedly repairs a violated dependency, choosing existential
    witnesses among the values already present in the right column (which
    is what lets infinite chase runs *fold* into finite models) or, with
    low probability, a fresh value. An attempt succeeds when every
    dependency holds and ``target`` is still violated. The search stops
    after ``restarts`` attempts or ``max_seconds`` of wall-clock time,
    whichever comes first.
    """
    rng = random.Random(seed)
    deadline = time.monotonic() + max_seconds
    for __ in range(restarts):
        if time.monotonic() >= deadline:
            return None
        start, __frozen = _freeze_target(target)
        witness = _attempt(
            start,
            dependencies,
            target,
            rng,
            max_repairs=max_repairs,
            max_rows=max_rows,
            max_fresh_per_column=max_fresh_per_column,
            deadline=deadline,
        )
        if witness is not None:
            return witness
    return None


def _attempt(
    instance: Instance,
    dependencies: Sequence[Dependency],
    target: Dependency,
    rng: random.Random,
    *,
    max_repairs: int,
    max_rows: int,
    max_fresh_per_column: int,
    deadline: float,
) -> Optional[Instance]:
    fresh_budget: dict[int, int] = {}
    # One checker for the whole attempt: conclusion rows are added
    # through it, so the compiled kernel state stays synchronized
    # incrementally instead of being rebuilt per find_violation call.
    model = ModelChecker(instance)
    for __ in range(max_repairs):
        if time.monotonic() >= deadline:
            return None
        # Scan dependencies in a random order and repair the FIRST
        # violation found; scanning all of them per repair is wasted work.
        order = list(dependencies)
        rng.shuffle(order)
        dependency = None
        witness = None
        for candidate in order:
            witness = model.find_violation(candidate)
            if witness is not None:
                dependency = candidate
                break
        if dependency is None:
            if model.find_violation(target) is not None:
                return instance  # model-checked: deps hold, target fails
            return None  # every repair path satisfied the target too
        assignment: dict[Variable, Value] = dict(witness)
        for variable in sorted(
            dependency.existential_variables(), key=lambda v: v.name
        ):
            column = _column_of(dependency, variable)
            candidates = _existential_candidates(
                instance, column, fresh_budget, max_fresh_per_column
            )
            if not candidates:
                candidates = [Const(("fm-fresh", column, 0))]
            choice = rng.choice(candidates)
            if isinstance(choice, Const) and isinstance(choice.name, tuple):
                if choice.name[:1] == ("fm-fresh",) and choice not in instance.column_values(column):
                    fresh_budget[column] = fresh_budget.get(column, 0) + 1
            assignment[variable] = choice
        for atom in dependency.conclusions:
            model.add(tuple(assignment[variable] for variable in atom))
        if len(instance) > max_rows:
            return None
    return None


def _column_of(dependency: Dependency, variable: Variable) -> int:
    """First column the variable occupies in the dependency's conclusions."""
    for atom in dependency.conclusions:
        for column, term in enumerate(atom):
            if term == variable:
                return column
    raise ValueError(f"{variable!r} not in conclusions")


def search_finite_counterexample(
    dependencies: Sequence[Dependency],
    target: Dependency,
    *,
    seed: int = 0,
    exhaustive_domain_size: int = 2,
    restarts: int = 50,
    max_seconds: float = 10.0,
) -> Optional[Instance]:
    """Try the exhaustive search on tiny domains, then the randomized one.

    Any returned instance is a genuine finite counterexample (it has been
    model-checked against every dependency and the target).
    """
    witness = search_exhaustive(
        dependencies, target, domain_size=exhaustive_domain_size
    )
    if witness is not None:
        return witness
    return search_random(
        dependencies,
        target,
        seed=seed,
        restarts=restarts,
        max_seconds=max_seconds,
    )

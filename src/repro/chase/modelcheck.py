"""Model checking: does a database satisfy a set of dependencies?

Used throughout: the reduction's direction (B) verifies that the
counterexample database satisfies every ``Di(r)`` but not ``D0``; tests use
it as the ground truth the chase must agree with.

Both entry points check the whole set through one
:class:`~repro.chase.checkplan.ModelChecker`, which interns the instance
once and answers every per-dependency question from int-index joins.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.chase.checkplan import ModelChecker
from repro.dependencies.classify import Dependency
from repro.relational.instance import Instance


def satisfies_all(instance: Instance, dependencies: Iterable[Dependency]) -> bool:
    """True when ``instance`` satisfies every dependency."""
    return ModelChecker(instance).satisfies_all(dependencies)


def all_violations(
    instance: Instance, dependencies: Sequence[Dependency]
) -> list[tuple[Dependency, dict]]:
    """Every violated dependency with one witnessing antecedent match.

    Returns an empty list exactly when :func:`satisfies_all` is true.
    """
    return ModelChecker(instance).all_violations(dependencies)

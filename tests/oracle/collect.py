"""The chase's trigger collection as it was before the old/delta split.

:func:`collect_matches_all` seeds every pivot atom with every delta row
and joins the other atoms against the whole instance, so a match with
delta rows at ``k`` atoms is enumerated ``k`` times and the ``seen`` set
drops the copies. The production :func:`repro.chase.plan._collect_matches_all`
lets the atoms before a pivot match only rows outside the delta, which
finds each match once, at its first delta atom. The two must return the
same *ordered* list: ``tests/chase/test_firing_order.py`` holds them to
it.
"""

from __future__ import annotations

from typing import Sequence

from repro.chase.plan import JoinPlan
from repro.kernel.joins import IntRow, KernelState, extend_matches

#: The walker's delta argument that prunes nothing.
NO_DELTA: frozenset = frozenset()


def collect_matches_all(
    state: KernelState,
    plan: JoinPlan,
    delta: Sequence[IntRow],
    evaluated: set[tuple[int, ...]],
) -> list[tuple[int, ...]]:
    """Every new match of ``plan`` with a delta row at some pivot atom."""
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
            extend_matches(state, steps, 0, regs, n_universal, seen, out, NO_DELTA)
    if evaluated:
        return [key for key in out if key not in evaluated]
    return out

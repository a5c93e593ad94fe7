"""Goal-directed pruning with an ungated entailment pass (reference).

:func:`repro.analysis.prune_for_target` tries an entailed drop only
when the premises left without the candidate are certified, since only
a certified program is chased to fixpoint. :func:`prune_ungated` is
the pass before that gate, verbatim: it chases every candidate against
the rest. On a set whose never-fires/duplicate kept set is certified
the two must make the same drops, and the gated pass must certify
every set this one certifies.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.analysis.report import (
    _ENTAILMENT_BUDGET,
    _ENTAILMENT_MAX_DEPENDENCIES,
    PrunedDependency,
    QueryProgram,
    _analysis,
    analyze,
)
from repro.dependencies.canonical import canonical_key
from repro.dependencies.classify import Dependency


def prune_ungated(key: Tuple[Dependency, ...]) -> QueryProgram:
    """``prune_for_target``'s pass with every entailment candidate
    chased against the rest (uncached)."""
    report = analyze(key)
    dropped: List[PrunedDependency] = []
    kept_indices: List[int] = []
    never = set(report.never_firing)
    seen_keys: Set[tuple] = set()
    for index, dependency in enumerate(key):
        name = getattr(dependency, "name", None) or f"dependency[{index}]"
        if index in never:
            dropped.append(PrunedDependency(index, name, "never-fires"))
            continue
        shape = canonical_key(dependency)
        if shape in seen_keys:
            dropped.append(PrunedDependency(index, name, "duplicate"))
            continue
        seen_keys.add(shape)
        kept_indices.append(index)

    if 2 <= len(kept_indices) <= _ENTAILMENT_MAX_DEPENDENCIES:
        # Lazy import: implication imports this module at top level.
        from repro.chase.implication import InferenceStatus, implies

        survivors: List[int] = []
        for position, index in enumerate(kept_indices):
            others = [
                key[other]
                for other in survivors + kept_indices[position + 1 :]
            ]
            if others:
                outcome = implies(
                    others,
                    key[index],
                    budget=_ENTAILMENT_BUDGET,
                    record_trace=False,
                    analysis="off",
                )
                if outcome.status is InferenceStatus.PROVED:
                    name = (
                        getattr(key[index], "name", None)
                        or f"dependency[{index}]"
                    )
                    dropped.append(
                        PrunedDependency(index, name, "entailed")
                    )
                    continue
            survivors.append(index)
        kept_indices = survivors

    kept = tuple(key[index] for index in kept_indices)
    # Never-firing dependencies were dropped first, so all kept ones fire.
    kept_report = _analysis(kept, (True,) * len(kept)) if dropped else report
    return QueryProgram(
        kept=kept,
        dropped=tuple(sorted(dropped, key=lambda entry: entry.index)),
        report=report,
        kept_report=kept_report,
    )

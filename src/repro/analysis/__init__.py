"""Static analysis of dependency sets: fragments, certificates, pruning.

Public surface:

* :func:`analyze` / :class:`AnalysisReport` — fragment hierarchy,
  position-graph facts, firing strata, termination certificate.
* :func:`prune_for_target` / :class:`QueryProgram` — goal-directed,
  verdict-preserving pruning plus the kept set's certificate/strata.
  An entailed premise is tried for a drop only where the rest stays
  certified, since only a certified program is chased to fixpoint.
* :class:`TerminationCertificate` — derived chase budgets for certified
  sets (``implies``/``chase`` run these to fixpoint; UNKNOWN impossible).
* :func:`position_facts` — the position graph's counts, special-cycle
  witness and rank in one pass (weak acyclicity).

The strata rest on one more fact, each dependency's ``is_trivial()``
(never-firing), which the dependency classes decide themselves.
"""

from repro.analysis.positions import PositionEdge, PositionFacts, position_facts
from repro.analysis.report import (
    AnalysisReport,
    Fragment,
    PrunedDependency,
    QueryProgram,
    TerminationCertificate,
    analyze,
    existential_depth,
    prune_for_target,
)

__all__ = [
    "AnalysisReport",
    "Fragment",
    "PositionEdge",
    "PositionFacts",
    "PrunedDependency",
    "QueryProgram",
    "TerminationCertificate",
    "analyze",
    "existential_depth",
    "position_facts",
    "prune_for_target",
]

"""Static analysis of dependency sets: fragments, certificates, pruning.

Public surface:

* :func:`analyze` / :class:`AnalysisReport` — fragment hierarchy,
  position-graph facts, firing strata, termination certificate.
* :func:`prune_for_target` / :class:`QueryProgram` — goal-directed,
  verdict-preserving pruning plus the kept set's certificate/strata.
* :class:`TerminationCertificate` — derived chase budgets for certified
  sets (``implies``/``chase`` run these to fixpoint; UNKNOWN impossible).
* :func:`position_facts` — the position graph's counts, special-cycle
  witness and rank in one pass (weak acyclicity), and
  :func:`never_fires`, the one firing-graph fact the strata rest on.
"""

from repro.analysis.firing import never_fires
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
    "never_fires",
    "position_facts",
    "prune_for_target",
]

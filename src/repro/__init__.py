"""repro: Gurevich & Lewis (1982), "The Inference Problem for Template
Dependencies", as a runnable library.

The package provides (see DESIGN.md for the full inventory):

* a typed relational substrate (:mod:`repro.relational`);
* template dependencies, EIDs and the diagram notation
  (:mod:`repro.dependencies`);
* a budgeted chase engine with certificates (:mod:`repro.chase`);
* the semigroup word-problem machinery (:mod:`repro.semigroups`);
* the paper's reduction, both directions machine-verified
  (:mod:`repro.reduction`);
* a three-valued inference facade (:mod:`repro.core`);
* canonical workloads and generators (:mod:`repro.workloads`);
* a batch inference service — canonical query hashing, a
  content-addressed result cache and a parallel chase scheduler
  (:mod:`repro.service`).

Quickstart::

    from repro import parse_td, infer, Semantics

    transitivity = parse_td("R(x,y) & R(y,z) -> R(x,z)")
    goal = parse_td("R(x,y) & R(y,z) & R(z,w) -> R(x,w)")
    report = infer([transitivity], goal)
    assert report.proved
"""

from repro.chase import Budget, ChaseStatus, InferenceStatus, chase, implies
from repro.core import Semantics, equivalent_sets, infer, is_redundant, minimal_cover
from repro.dependencies import (
    Diagram,
    EmbeddedImplicationalDependency,
    TemplateDependency,
    Variable,
    diagram_of,
    parse_dependency,
    parse_td,
    render_ascii,
    render_dot,
)
from repro.reduction import (
    ReductionEncoding,
    classify_instance,
    encode,
    prove_direction_a,
    prove_direction_b,
)
from repro.dependencies.canonical import dependency_fingerprint, query_fingerprint
from repro.relational import Const, Instance, LabeledNull, Schema
from repro.semigroups import Equation, FiniteSemigroup, Presentation, word_problem
from repro.service import InferenceService, ResultCache

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # relational
    "Schema",
    "Instance",
    "Const",
    "LabeledNull",
    # dependencies
    "Variable",
    "TemplateDependency",
    "EmbeddedImplicationalDependency",
    "Diagram",
    "diagram_of",
    "parse_td",
    "parse_dependency",
    "render_ascii",
    "render_dot",
    # chase
    "Budget",
    "chase",
    "ChaseStatus",
    "implies",
    "InferenceStatus",
    # core facade
    "infer",
    "Semantics",
    "equivalent_sets",
    "is_redundant",
    "minimal_cover",
    # semigroups
    "Presentation",
    "Equation",
    "FiniteSemigroup",
    "word_problem",
    # reduction
    "encode",
    "ReductionEncoding",
    "prove_direction_a",
    "prove_direction_b",
    "classify_instance",
    # batch service
    "InferenceService",
    "ResultCache",
    "dependency_fingerprint",
    "query_fingerprint",
]

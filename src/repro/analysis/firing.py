"""Never-firing dependencies.

A dependency whose conclusions map into its own antecedents under a
substitution fixing the universal variables (:func:`never_fires`) holds
in every database, so the restricted chase never finds an active
trigger for it: it adds nothing and nothing can wake it. Dropping it
changes neither the chase nor any goal check, which is what the
analyzer's STRATIFIED fragment and the ``never-fires`` pruning reason
rest on.

In this repository's single-relation, typed setting that is also the
only sound refinement of the dependency-to-dependency firing graph: any
new row can take part in a match of any antecedent (a homomorphism may
collapse every antecedent atom onto one row), so the productive
dependencies all reach each other and form one stratum, and each
never-firing dependency is a stratum of its own
(:attr:`repro.analysis.report.AnalysisReport.strata`).
"""

from __future__ import annotations

from repro.dependencies.classify import Dependency
from repro.dependencies.template import is_variable
from repro.relational.homplan import find_homomorphism
from repro.relational.instance import Instance


def never_fires(dependency: Dependency) -> bool:
    """True when no trigger for ``dependency`` can ever be active.

    Generalizes :meth:`TemplateDependency.is_trivial` to multi-atom
    (EID) conclusions: every conclusion atom must embed into the
    antecedent set under one substitution fixing the universal
    variables (shared existentials must map consistently). Any
    antecedent match then already witnesses the conclusion, so the
    restricted chase never fires the dependency — dropping it from a
    chase changes neither the fixpoint nor any goal check.
    """
    antecedent_instance = Instance(
        dependency.schema,
        (tuple(atom) for atom in dependency.antecedents),  # type: ignore[arg-type]
    )
    universals = dependency.universal_variables()
    conclusion_variables = {
        variable for atom in dependency.conclusions for variable in atom
    }
    identity = {
        variable: variable for variable in conclusion_variables & universals
    }
    extension = find_homomorphism(
        list(dependency.conclusions),
        antecedent_instance,
        partial=identity,
        flexible=is_variable,
    )
    return extension is not None

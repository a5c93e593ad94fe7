"""Embedded implicational dependencies (EIDs).

Chandra, Lewis & Makowsky (1981) proved undecidability of inference for
*embedded implicational dependencies*: like template dependencies, but the
conclusion may be a **conjunction** of atoms rather than a single atom. The
paper under reproduction strengthens that result (TDs are the special case
with a one-atom conclusion), and gives the example EID

.. code-block:: text

    R(a, b, c) & R(a, b', c')  =>  R(a*, b, c) & R(a*, b, c')

("if one supplier supplies garment b in size c and also some garment in
size c', then a single supplier supplies garment b in both sizes").

EIDs share the chase machinery with TDs: both expose ``antecedents`` and
``conclusions``, and the chase engine only looks at those two attributes.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from repro.errors import ArityError, DependencyError
from repro.relational.homplan import find_homomorphism
from repro.relational.instance import Instance
from repro.relational.schema import Schema
from repro.dependencies.template import (
    Atom,
    TemplateDependency,
    Variable,
    _slot_state,
    is_variable,
)


class EmbeddedImplicationalDependency:
    """An EID: antecedent atoms implying a conjunction of conclusion atoms."""

    __slots__ = ("schema", "antecedents", "conclusions", "name", "_typed", "_hash")

    def __init__(
        self,
        schema: Schema,
        antecedents: Iterable[Sequence[Variable]],
        conclusions: Iterable[Sequence[Variable]],
        *,
        name: Optional[str] = None,
    ):
        self.schema = schema
        self.antecedents: tuple[Atom, ...] = tuple(tuple(atom) for atom in antecedents)
        self.conclusions: tuple[Atom, ...] = tuple(tuple(atom) for atom in conclusions)
        self.name = name
        if not self.antecedents:
            raise DependencyError("an EID needs at least one antecedent")
        if not self.conclusions:
            raise DependencyError("an EID needs at least one conclusion atom")
        for atom in self.antecedents + self.conclusions:
            if len(atom) != schema.arity:
                raise ArityError(
                    f"atom of arity {len(atom)} does not fit schema arity {schema.arity}"
                )
            for term in atom:
                if not is_variable(term):
                    raise DependencyError(
                        f"atoms must contain Variable terms only, got {term!r}"
                    )
        self._typed = self._check_typed()

    def _check_typed(self) -> bool:
        column_of: dict[Variable, int] = {}
        for atom in self.atoms():
            for column, variable in enumerate(atom):
                if column_of.setdefault(variable, column) != column:
                    return False
        return True

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def atoms(self) -> Iterator[Atom]:
        """All atoms: antecedents then conclusion atoms."""
        yield from self.antecedents
        yield from self.conclusions

    def universal_variables(self) -> set[Variable]:
        """Variables occurring in some antecedent."""
        return {variable for atom in self.antecedents for variable in atom}

    def existential_variables(self) -> set[Variable]:
        """Conclusion variables occurring in no antecedent."""
        conclusion_variables = {
            variable for atom in self.conclusions for variable in atom
        }
        return conclusion_variables - self.universal_variables()

    def is_full(self) -> bool:
        """True when the conclusion has no existential variables."""
        return not self.existential_variables()

    def is_typed(self) -> bool:
        """True when every variable occupies a single column."""
        return self._typed

    def is_trivial(self) -> bool:
        """True when the EID holds in every database.

        That is when every conclusion atom maps into the antecedent set
        under one substitution fixing every universal variable (shared
        existentials must map consistently). Any antecedent match then
        already witnesses the conclusion, so the restricted chase never
        finds an active trigger for it: dropping it changes neither the
        chase nor any goal check.
        """
        antecedent_instance = Instance(
            self.schema, (tuple(atom) for atom in self.antecedents)  # type: ignore[arg-type]
        )
        universals = self.universal_variables()
        identity = {
            variable: variable
            for atom in self.conclusions
            for variable in atom
            if variable in universals
        }
        extension = find_homomorphism(
            list(self.conclusions),
            antecedent_instance,
            partial=identity,
            flexible=is_variable,
        )
        return extension is not None

    def is_template_dependency(self) -> bool:
        """True when the conclusion conjunction is a single atom."""
        return len(self.conclusions) == 1

    def as_template_dependency(self) -> TemplateDependency:
        """Convert to a TD (only when the conclusion is a single atom)."""
        if not self.is_template_dependency():
            raise DependencyError(
                "EID with a multi-atom conclusion is not a template dependency"
            )
        return TemplateDependency(
            self.schema, self.antecedents, self.conclusions[0], name=self.name
        )

    def split(self) -> list[TemplateDependency]:
        """Split into one TD per conclusion atom.

        Note this weakening is **not** equivalent for embedded dependencies:
        the conjunction requires one witness serving all conclusion atoms,
        whereas the split TDs may use different witnesses. The split is
        still a sound consequence and is what the paper means when it says
        EIDs are *more general* than TDs.
        """
        return [
            TemplateDependency(
                self.schema,
                self.antecedents,
                atom,
                name=f"{self.name or 'eid'}[{index}]",
            )
            for index, atom in enumerate(self.conclusions)
        ]

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------

    def holds_in(self, instance: Instance) -> bool:
        """Model checking against a database instance (the compiled
        join-plan checker of :mod:`repro.chase.checkplan`)."""
        return self.find_violation(instance) is None

    def find_violation(self, instance: Instance) -> Optional[dict]:
        """Return a violating antecedent homomorphism, or None.

        Shares one implementation with
        :class:`~repro.dependencies.template.TemplateDependency` (a TD is
        this with a one-atom conclusion conjunction), in
        :mod:`repro.chase.checkplan`.
        """
        from repro.chase.checkplan import find_violation

        return find_violation(self, instance)

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EmbeddedImplicationalDependency):
            return NotImplemented
        return (
            self.schema == other.schema
            and self.antecedents == other.antecedents
            and self.conclusions == other.conclusions
        )

    def __hash__(self) -> int:
        # Cached on first use, and left out of the pickled state, as on
        # TemplateDependency.
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.schema, self.antecedents, self.conclusions))
            return self._hash

    def __getstate__(self) -> tuple:
        return _slot_state(self)

    def __repr__(self) -> str:
        label = f" {self.name}" if self.name else ""
        return (
            f"<EID{label} antecedents={len(self.antecedents)}"
            f" conclusions={len(self.conclusions)}>"
        )

    def __str__(self) -> str:
        def show(atom: Atom) -> str:
            return "R(" + ", ".join(variable.name for variable in atom) + ")"

        left = " & ".join(show(atom) for atom in self.antecedents)
        right = " & ".join(show(atom) for atom in self.conclusions)
        return f"{left} -> {right}"


def td_as_eid(td: TemplateDependency) -> EmbeddedImplicationalDependency:
    """Embed a template dependency into the EID class (one-atom conclusion)."""
    return EmbeddedImplicationalDependency(
        td.schema, td.antecedents, (td.conclusion,), name=td.name
    )

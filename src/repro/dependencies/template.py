"""Template dependencies.

A *template dependency* (TD) over a schema with attributes ``A, B, ..., C``
is a sentence

.. code-block:: text

    R(a, b, ..., c) & R(a', b', ..., c') & ... & R(a'', b'', ..., c'')
        =>  R(a*, b*, ..., c*)

stating that whenever tuples matching the antecedents are in the database,
a tuple matching the conclusion is too. Antecedent variables are
universally quantified; conclusion variables that do not occur in any
antecedent are existentially quantified. A TD is *full* when the conclusion
has no existential variables and *embedded* otherwise. Equality is not
available (the paper rules out the identity sign).

The *typing restriction*: attribute domains are disjoint, so a variable may
appear in only one column. :meth:`TemplateDependency.is_typed` checks it;
the constructor tolerates untyped dependencies (used by one example that
reproduces a folklore finite-vs-unrestricted phenomenon) but everything in
the paper's construction is typed.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional, Sequence

from repro.errors import ArityError, DependencyError, TypingError
from repro.relational.instance import Instance, Row
from repro.relational.schema import Schema
from repro.relational.values import Const, NullFactory, Value


class Variable:
    """A named dependency variable.

    Variables compare by name, so the same name in two atoms denotes the
    same individual. Conclusion-only variables are existential.
    """

    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        if not isinstance(name, str) or not name:
            raise DependencyError(f"variable names must be non-empty strings, got {name!r}")
        self.name = name
        self._hash = hash(("Var", name))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Variable):
            return NotImplemented
        return self.name == other.name

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        # Rebuild from the name: the cached string hash is only valid
        # under the hash seed of the process that computed it.
        return (Variable, (self.name,))

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    def __str__(self) -> str:
        return self.name


def _slot_state(dependency: object) -> tuple:
    """Pickle state of a slotted dependency, without its cached hash.

    The hash is only valid under the hash seed of the process that
    computed it; the loading process recomputes it on first use.
    """
    return (
        None,
        {
            slot: getattr(dependency, slot)
            for slot in type(dependency).__slots__  # type: ignore[attr-defined]
            if slot != "_hash" and hasattr(dependency, slot)
        },
    )


def is_variable(term: object) -> bool:
    """True when ``term`` is a dependency variable."""
    return isinstance(term, Variable)


#: An atom: one variable per column of the schema.
Atom = tuple[Variable, ...]


class TemplateDependency:
    """An immutable template dependency over a fixed schema.

    >>> from repro.relational import Schema
    >>> schema = Schema(["SUPPLIER", "STYLE", "SIZE"])
    >>> a, b, c = Variable("a"), Variable("b"), Variable("c")
    >>> b2, c2, a_star = Variable("b2"), Variable("c2"), Variable("a_star")
    >>> fig1 = TemplateDependency(
    ...     schema,
    ...     antecedents=[(a, b, c), (a, b2, c2)],
    ...     conclusion=(a_star, b, c2),
    ... )
    >>> fig1.is_full()
    False
    """

    __slots__ = (
        "schema",
        "antecedents",
        "conclusion",
        "name",
        "_column_of",
        "_typed",
        "_hash",
    )

    def __init__(
        self,
        schema: Schema,
        antecedents: Iterable[Sequence[Variable]],
        conclusion: Sequence[Variable],
        *,
        name: Optional[str] = None,
    ):
        self.schema = schema
        self.antecedents: tuple[Atom, ...] = tuple(
            tuple(atom) for atom in antecedents
        )
        self.conclusion: Atom = tuple(conclusion)
        self.name = name
        if not self.antecedents:
            raise DependencyError("a template dependency needs at least one antecedent")
        for atom in self.antecedents + (self.conclusion,):
            if len(atom) != schema.arity:
                raise ArityError(
                    f"atom of arity {len(atom)} does not fit schema arity {schema.arity}"
                )
            for term in atom:
                if not is_variable(term):
                    raise DependencyError(
                        f"atoms must contain Variable terms only, got {term!r}"
                    )
        self._column_of, self._typed = self._compute_typing()

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def _compute_typing(self) -> tuple[dict[Variable, int], bool]:
        column_of: dict[Variable, int] = {}
        typed = True
        for atom in self.atoms():
            for column, variable in enumerate(atom):
                seen = column_of.setdefault(variable, column)
                if seen != column:
                    typed = False
        return column_of, typed

    def atoms(self) -> Iterator[Atom]:
        """All atoms: the antecedents followed by the conclusion."""
        yield from self.antecedents
        yield self.conclusion

    @property
    def conclusions(self) -> tuple[Atom, ...]:
        """The conclusion as a one-element conjunction.

        This gives TDs and EIDs a common shape, so the chase engine can
        treat a TD as an EID whose conclusion conjunction has one atom.
        """
        return (self.conclusion,)

    def variables(self) -> set[Variable]:
        """Every variable occurring in the dependency."""
        return set(self._column_of)

    def universal_variables(self) -> set[Variable]:
        """Variables occurring in some antecedent."""
        return {variable for atom in self.antecedents for variable in atom}

    def existential_variables(self) -> set[Variable]:
        """Conclusion variables that occur in no antecedent."""
        return set(self.conclusion) - self.universal_variables()

    def column_of(self, variable: Variable) -> int:
        """The column a variable occupies (first occurrence when untyped)."""
        try:
            return self._column_of[variable]
        except KeyError:
            raise DependencyError(f"{variable!r} does not occur in this dependency") from None

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------

    def is_full(self) -> bool:
        """True when the conclusion has no existential variables."""
        return not self.existential_variables()

    def is_embedded(self) -> bool:
        """True when some conclusion variable is existential."""
        return not self.is_full()

    def is_typed(self) -> bool:
        """True when every variable occupies a single column."""
        return self._typed

    def validate_typed(self) -> None:
        """Raise :class:`~repro.errors.TypingError` unless typed."""
        if not self._typed:
            offenders = sorted(
                variable.name
                for variable in self.variables()
                if len({
                    column
                    for atom in self.atoms()
                    for column, term in enumerate(atom)
                    if term == variable
                }) > 1
            )
            raise TypingError(
                f"variables {offenders} appear in more than one column"
            )

    def is_trivial(self) -> bool:
        """True when the conclusion already follows from the antecedents.

        A TD is trivial when the conclusion atom maps into the antecedent
        set by a substitution that fixes every universal variable (the
        existential variables may go anywhere). Such a TD holds in every
        database. It is the one-atom case of the EID test, which decides it.
        """
        from repro.dependencies.eid import td_as_eid

        return td_as_eid(self).is_trivial()

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------

    def holds_in(self, instance: Instance) -> bool:
        """Model checking: does ``instance`` satisfy this dependency?

        True when every homomorphism of the antecedents into the instance
        extends to one of the conclusion (the compiled join-plan checker
        of :mod:`repro.chase.checkplan`).
        """
        return self.find_violation(instance) is None

    def find_violation(self, instance: Instance) -> Optional[dict]:
        """Return a violating antecedent homomorphism, or None.

        A violation is an assignment of the universal variables under which
        every antecedent is present but no conclusion tuple exists. The
        implementation is shared with EIDs (a TD is the one-conclusion-atom
        special case) in :mod:`repro.chase.checkplan`.
        """
        from repro.chase.checkplan import find_violation

        return find_violation(self, instance)

    def freeze(
        self, fresh: Optional[NullFactory] = None
    ) -> tuple[Instance, dict[Variable, Value]]:
        """Freeze the antecedents into a canonical database.

        Every universal variable becomes a distinct frozen constant — or,
        when ``fresh`` (a :class:`~repro.relational.values.NullFactory`)
        is given, a distinct labelled null from that factory. The frozen
        instance is what the chase starts from when testing whether a set
        of dependencies implies this one; the null-freezing variant makes
        the start instance homomorphically extensible (nulls may be
        remapped) where frozen constants are rigid. Returned alongside
        the variable-to-value assignment.
        """
        assignment: dict[Variable, Value] = {}
        for variable in sorted(self.universal_variables(), key=lambda v: v.name):
            assignment[variable] = (
                fresh() if fresh is not None else Const(("frozen", variable.name))
            )
        instance = Instance(
            self.schema,
            (
                tuple(assignment[variable] for variable in atom)
                for atom in self.antecedents
            ),
        )
        return instance, assignment

    # ------------------------------------------------------------------
    # Transformation and comparison
    # ------------------------------------------------------------------

    def rename(self, mapping: Mapping[Variable, Variable]) -> "TemplateDependency":
        """Apply a variable renaming, returning a new dependency."""

        def substitute(atom: Atom) -> Atom:
            return tuple(mapping.get(variable, variable) for variable in atom)

        return TemplateDependency(
            self.schema,
            [substitute(atom) for atom in self.antecedents],
            substitute(self.conclusion),
            name=self.name,
        )

    def canonical(self) -> "TemplateDependency":
        """A canonical variable renaming, for structural comparison.

        Delegates to :func:`repro.dependencies.canonical.canonicalize`
        (the colour-refinement canonical labelling the batch service
        hashes with), so there is exactly one definition of structural
        identity in the library: two dependencies have equal canonical
        forms exactly when one is a variable renaming (plus antecedent
        reordering) of the other. That is exact whenever the labelling
        search finishes within its node budget, which covers everything
        but large, highly symmetric conjunctions; there the search
        follows one branch and can at worst split an equivalence class,
        never conflate two.
        """
        from repro.dependencies.canonical import canonicalize

        canonical = canonicalize(self)
        assert isinstance(canonical, TemplateDependency)
        return canonical

    def structurally_equal(self, other: "TemplateDependency") -> bool:
        """Equality up to variable renaming and antecedent order."""
        if self.schema != other.schema:
            return False
        mine = self.canonical()
        theirs = other.canonical()
        return (
            mine.antecedents == theirs.antecedents
            and mine.conclusion == theirs.conclusion
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemplateDependency):
            return NotImplemented
        return (
            self.schema == other.schema
            and self.antecedents == other.antecedents
            and self.conclusion == other.conclusion
        )

    def __hash__(self) -> int:
        # Cached on first use: premise tuples key the analysis and plan
        # memos, so a warm query hashes every premise it names.
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.schema, self.antecedents, self.conclusion))
            return self._hash

    def __getstate__(self) -> tuple:
        return _slot_state(self)

    def __repr__(self) -> str:
        label = f" {self.name}" if self.name else ""
        return (
            f"<TemplateDependency{label} antecedents={len(self.antecedents)}"
            f" arity={self.schema.arity}>"
        )

    def __str__(self) -> str:
        def show(atom: Atom) -> str:
            return "R(" + ", ".join(variable.name for variable in atom) + ")"

        left = " & ".join(show(atom) for atom in self.antecedents)
        return f"{left} -> {show(self.conclusion)}"

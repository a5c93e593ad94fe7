"""Schemas: ordered lists of named attributes for the single relation ``R``.

Gurevich & Lewis work with a single relation with a fixed number of columns
(attributes) ``A, B, ..., C`` whose domains are pairwise disjoint. A
:class:`Schema` is the ordered list of attribute names; positions (column
indexes) are the primary handle used throughout the library, names are for
presentation and parsing.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import SchemaError

#: An attribute is identified by its name.
Attribute = str


class Schema:
    """An ordered, duplicate-free list of attribute names.

    The schema fixes the arity of every tuple in an
    :class:`~repro.relational.instance.Instance` and the column of every
    variable in a dependency. Schemas are immutable and hashable, so they
    can key caches and be shared freely between instances and dependencies.

    >>> schema = Schema(["SUPPLIER", "STYLE", "SIZE"])
    >>> schema.arity
    3
    >>> schema.position("STYLE")
    1
    """

    __slots__ = ("_attributes", "_positions", "_hash")

    def __init__(self, attributes: Iterable[Attribute]):
        attrs = tuple(attributes)
        if not attrs:
            raise SchemaError("a schema needs at least one attribute")
        positions: dict[Attribute, int] = {}
        for index, name in enumerate(attrs):
            if not isinstance(name, str) or not name:
                raise SchemaError(f"attribute names must be non-empty strings, got {name!r}")
            if name in positions:
                raise SchemaError(f"duplicate attribute {name!r}")
            positions[name] = index
        self._attributes = attrs
        self._positions = positions
        self._hash = hash(attrs)

    @property
    def attributes(self) -> tuple[Attribute, ...]:
        """The attribute names, in column order."""
        return self._attributes

    @property
    def arity(self) -> int:
        """Number of columns of the relation."""
        return len(self._attributes)

    def position(self, attribute: Attribute) -> int:
        """Return the column index of ``attribute``.

        Raises :class:`~repro.errors.SchemaError` for unknown attributes.
        """
        try:
            return self._positions[attribute]
        except KeyError:
            raise SchemaError(f"unknown attribute {attribute!r}") from None

    def attribute(self, position: int) -> Attribute:
        """Return the attribute name at ``position``."""
        if not 0 <= position < len(self._attributes):
            raise SchemaError(
                f"position {position} out of range for arity {self.arity}"
            )
        return self._attributes[position]

    def __contains__(self, attribute: object) -> bool:
        return attribute in self._positions

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __len__(self) -> int:
        return len(self._attributes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._attributes == other._attributes

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        # Rebuild from the attributes: the cached string hash is only
        # valid under the hash seed of the process that computed it.
        return (Schema, (self._attributes,))

    def __repr__(self) -> str:
        return f"Schema({list(self._attributes)!r})"

    def check_arity(self, row: tuple) -> None:
        """Raise :class:`~repro.errors.ArityError` unless ``len(row) == arity``."""
        from repro.errors import ArityError

        if len(row) != self.arity:
            raise ArityError(
                f"tuple of length {len(row)} does not fit schema of arity {self.arity}"
            )

"""Database instances: finite sets of typed tuples over one relation.

An :class:`Instance` is the paper's "database": a finite relational structure
consisting of a single relation ``R`` over a fixed schema. Tuples are plain
Python tuples of :class:`~repro.relational.values.Value`. The instance keeps
a per-(column, value) inverted index so that trigger enumeration during the
chase can seed backtracking from the rarest cell instead of scanning.

Instances are mutable (the chase extends them in place) but expose
value-semantics helpers (:meth:`Instance.copy`, equality on row sets) for
tests and model search.
"""

from __future__ import annotations

from typing import AbstractSet, Callable, Iterable, Iterator, Mapping, Optional

from repro.errors import TypingError
from repro.relational.schema import Schema
from repro.relational.values import InternTable, Value

#: A database row: one value per column.
Row = tuple[Value, ...]

#: Shared empty bucket served by ``rows_with`` misses (never mutated).
_EMPTY_BUCKET: frozenset = frozenset()


class _RowsView(AbstractSet):
    """A zero-copy read-only view over a live index bucket.

    Exposes set reads (membership, iteration, length, comparisons via
    the ``Set`` mixins) without handing callers the mutable internal
    set — mutating methods simply don't exist, so a stray
    ``bucket.discard(...)`` fails loudly instead of silently
    desynchronizing the index from the row set.
    """

    __slots__ = ("_bucket",)

    def __init__(self, bucket: AbstractSet[Row]):
        self._bucket = bucket

    def __contains__(self, row: object) -> bool:
        return row in self._bucket

    def __iter__(self) -> Iterator[Row]:
        return iter(self._bucket)

    def __len__(self) -> int:
        return len(self._bucket)

    @classmethod
    def _from_iterable(cls, iterable) -> frozenset:
        # Set-algebra results (view & other, view | other, ...) are
        # materialized, not views.
        return frozenset(iterable)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<rows view of {len(self._bucket)} row(s)>"


class Instance:
    """A finite set of rows over a :class:`~repro.relational.schema.Schema`.

    >>> from repro.relational import Schema, Const
    >>> garments = Instance(Schema(["SUPPLIER", "STYLE", "SIZE"]))
    >>> garments.add((Const("BVD"), Const("Brief"), Const(36)))
    True
    >>> len(garments)
    1
    """

    __slots__ = (
        "schema",
        "_rows",
        "_index",
        "_intern",
        "_snapshot",
        "_view",
        "_epoch",
    )

    def __init__(self, schema: Schema, rows: Iterable[Row] = ()):
        self.schema = schema
        # The row set, as dict keys so iteration follows insertion order:
        # a chase seeds its kernel view from this order, and a set would
        # make the firing sequence depend on string hashing.
        self._rows: dict[Row, None] = {}
        # (column, value) -> set of rows having that value in that column.
        self._index: dict[tuple[int, Value], set[Row]] = {}
        # Lazily created Value <-> dense-int table for the compiled chase
        # kernel; plain Instance users never pay for it.
        self._intern: Optional[InternTable] = None
        # Cached frozenset snapshot served by ``rows``; invalidated on
        # mutation so repeated reads (semi-naive seeding, the service's
        # replay checks) don't rebuild it per access.
        self._snapshot: Optional[frozenset[Row]] = None
        # The cached interned kernel view (see ``kernel_view``), kept in
        # sync by the mutation hooks below; None until first requested.
        self._view = None
        # Mutation epoch: bumped on every successful add/discard through
        # any path (including the kernel's direct fire path), so callers
        # holding derived artifacts can detect *any* out-of-band change —
        # unlike a row count, which an equal-count discard+add preserves.
        self._epoch: int = 0
        for row in rows:
            self.add(row)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, row: Row) -> bool:
        """Insert ``row``; return True when it was not already present."""
        self.schema.check_arity(row)
        if row in self._rows:
            return False
        self._rows[row] = None
        self._snapshot = None
        self._epoch += 1
        for column, value in enumerate(row):
            self._index.setdefault((column, value), set()).add(row)
        view = self._view
        if view is not None:
            view._admit(view.intern_row(row))
        return True

    def add_all(self, rows: Iterable[Row]) -> int:
        """Insert every row; return the number of genuinely new rows."""
        return sum(1 for row in rows if self.add(row))

    def discard(self, row: Row) -> bool:
        """Remove ``row`` if present; return True when it was removed."""
        if row not in self._rows:
            return False
        del self._rows[row]
        self._snapshot = None
        self._epoch += 1
        for column, value in enumerate(row):
            bucket = self._index.get((column, value))
            if bucket is not None:
                bucket.discard(row)
                if not bucket:
                    del self._index[(column, value)]
        view = self._view
        if view is not None:
            view._retract(view.intern_row(row))
        return True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __contains__(self, row: object) -> bool:
        return row in self._rows

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    @property
    def rows(self) -> frozenset[Row]:
        """A frozen snapshot of the current row set (cached until mutation)."""
        snapshot = self._snapshot
        if snapshot is None:
            snapshot = self._snapshot = frozenset(self._rows)
        return snapshot

    @property
    def epoch(self) -> int:
        """Mutation counter: bumped on every successful add or discard.

        Derived artifacts (interned kernel views, model-checker sync
        state) compare epochs instead of row counts — a discard followed
        by an add leaves ``len`` unchanged but never the epoch.
        """
        return self._epoch

    def kernel_view(self):
        """The cached interned kernel view of this instance.

        Created on first use and then kept in sync by the mutation
        hooks in :meth:`add` / :meth:`discard` (and by the kernel's own
        fire path), so repeated compiled-engine calls on one database
        stop paying O(instance) view construction per call. Returns a
        :class:`repro.kernel.joins.KernelState`; imported lazily to
        keep the relational layer free of a kernel dependency at import
        time.
        """
        view = self._view
        if view is None:
            from repro.kernel.joins import KernelState

            view = self._view = KernelState(self)
        return view

    @property
    def intern_table(self) -> InternTable:
        """The instance's Value <-> dense-int table (created on first use).

        The compiled chase kernel keys its row representation on this
        table; everything else (certificates, the canonical hasher, the
        JSON codec) keeps seeing real :class:`Value` objects at the
        boundary. The table only ever grows — ids stay valid across
        ``add``/``discard``.
        """
        table = self._intern
        if table is None:
            table = self._intern = InternTable()
        return table

    def rows_with(self, column: int, value: Value) -> AbstractSet[Row]:
        """All rows whose ``column`` component equals ``value``.

        Returns a read-only *view* of the live index bucket (no copy;
        it tracks later mutations of the instance). Callers that mutate
        the instance while iterating must snapshot it first — the chase
        engine and homomorphism search already enumerate before firing.
        """
        bucket = self._index.get((column, value))
        if bucket is None:
            return _EMPTY_BUCKET
        return _RowsView(bucket)

    def matching_rows(self, pattern: Mapping[int, Value]) -> Iterator[Row]:
        """Yield rows agreeing with ``pattern`` (a column -> value map).

        The scan is seeded from the most selective constrained column
        and iterates the live bucket without copying; with an empty
        pattern every row matches. As with :meth:`rows_with`, callers
        must not mutate the instance mid-iteration.
        """
        if not pattern:
            yield from self._rows
            return
        candidates: set[Row] | None = None
        best_size = None
        for column, value in pattern.items():
            bucket = self._index.get((column, value))
            if not bucket:
                return
            if best_size is None or len(bucket) < best_size:
                candidates = bucket
                best_size = len(bucket)
        assert candidates is not None
        items = pattern.items()
        for row in candidates:
            if all(row[column] == value for column, value in items):
                yield row

    def column_values(self, column: int) -> set[Value]:
        """The set of values occurring in ``column``.

        Derived from the inverted index keys — O(distinct cells), not a
        full row scan.
        """
        return {
            value for (key_column, value) in self._index if key_column == column
        }

    def active_domain(self) -> set[Value]:
        """All values occurring anywhere in the instance.

        Derived from the inverted index keys — O(distinct cells), not a
        full row scan.
        """
        return {value for (__, value) in self._index}

    def validate(self) -> None:
        """Enforce the typing restriction (disjoint attribute domains).

        Raises :class:`~repro.errors.TypingError` if some value occurs in
        two different columns, which the paper's typed setting forbids.
        """
        seen: dict[Value, int] = {}
        for row in self._rows:
            for column, value in enumerate(row):
                previous = seen.setdefault(value, column)
                if previous != column:
                    raise TypingError(
                        f"value {value!r} occurs in columns "
                        f"{self.schema.attribute(previous)!r} and "
                        f"{self.schema.attribute(column)!r}"
                    )

    def is_typed(self) -> bool:
        """Return True when the typing restriction holds."""
        try:
            self.validate()
        except TypingError:
            return False
        return True

    # ------------------------------------------------------------------
    # Derived instances
    # ------------------------------------------------------------------

    def copy(self) -> "Instance":
        """An independent copy sharing the schema.

        Clones the row set and inverted index wholesale instead of
        re-inserting row by row (rows in ``self`` already passed the
        arity check).
        """
        clone = Instance.__new__(Instance)
        clone.schema = self.schema
        clone._rows = dict(self._rows)
        clone._index = {
            key: set(bucket) for key, bucket in self._index.items()
        }
        clone._intern = None
        clone._snapshot = self._snapshot
        clone._view = None  # views subscribe to one instance only
        clone._epoch = 0
        return clone

    def map_values(self, mapping: Callable[[Value], Value]) -> "Instance":
        """Apply ``mapping`` to every component, returning a new instance."""
        return Instance(
            self.schema,
            (tuple(mapping(value) for value in row) for row in self._rows),
        )

    def union(self, other: "Instance") -> "Instance":
        """Union of two instances over the same schema."""
        if other.schema != self.schema:
            raise TypingError("cannot union instances over different schemas")
        merged = self.copy()
        merged.add_all(other.rows)
        return merged

    def induced(self, keep: Callable[[Row], bool]) -> "Instance":
        """The sub-instance of rows satisfying ``keep``."""
        return Instance(self.schema, (row for row in self._rows if keep(row)))

    # ------------------------------------------------------------------
    # Comparison and display
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self.schema == other.schema and self._rows == other._rows

    def __hash__(self) -> int:  # pragma: no cover - instances are mutable
        raise TypeError("Instance is mutable and unhashable; use .rows")

    def __repr__(self) -> str:
        return f"<Instance arity={self.schema.arity} rows={len(self._rows)}>"

    def pretty(self, limit: int = 20) -> str:
        """A small fixed-width rendering, for logs and examples."""
        header = " | ".join(self.schema.attributes)
        lines = [header, "-" * len(header)]
        for count, row in enumerate(sorted(self._rows, key=repr)):
            if count >= limit:
                lines.append(f"... ({len(self._rows) - limit} more rows)")
                break
            lines.append(" | ".join(str(value) for value in row))
        return "\n".join(lines)

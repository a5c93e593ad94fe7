"""The interned kernel view of a live :class:`Instance`.

Extracted from :mod:`repro.kernel.joins` when the kernel grew its
native backend: the walkers are pure step evaluators over this state,
and keeping the state (the one component that writes through to
:class:`~repro.relational.instance.Instance` internals) in its own
module keeps the audited surface small — this module and the walker
module are the only entries on the repo lint's Instance-storage
allowlist (``scripts/lint_invariants.py``).

The :class:`~repro.relational.values.InternTable` fast path lives here
too: the state holds the table's raw ``(ids, values)`` pair and interns
inline (one dict probe per cell) instead of paying a bound-method call
per value — the dominant cost of single-shot small-CQ calls, which
intern a handful of values against a small instance and then walk a
two-step plan. With the native backend active, bulk interning and index
construction run in C (:func:`repro.kernel._native.fill_state`).
"""

from __future__ import annotations

from typing import Optional

from repro.kernel import backend as _backend
from repro.relational.instance import Instance, Row
from repro.relational.values import Value

#: An interned row: one dense int per column.
IntRow = tuple[int, ...]


class KernelState:
    """The interned view of a live :class:`Instance`, kept in sync.

    Rows are tuples of dense ints (via ``instance.intern_table``); the
    inverted index maps ``(column, value id)`` to a list of int rows.

    Historically each compiled consumer built a fresh ``KernelState``
    per call and was then the only mutator; the canonical way to obtain
    one now is :meth:`Instance.kernel_view`, which caches the view on
    the instance and keeps it in sync through the instance's own
    ``add``/``discard`` hooks — so the view survives out-of-band
    mutation and repeated calls stop paying O(instance) construction.
    Constructing ``KernelState(instance)`` directly still works (tests
    and one-shot callers do) but such a detached view is *not*
    subscribed to the instance and goes stale on mutation.
    """

    __slots__ = (
        "instance",
        "values",
        "_ids",
        "index",
        "irows",
        "rows_list",
        "_pos",
    )

    def __init__(self, instance: Instance):
        self.instance = instance
        table = instance.intern_table
        ids, values = table.raw()
        #: id -> Value (the table's own list, shared, append-only).
        self.values: list[Value] = values
        #: Value -> id (the table's own dict, shared).
        self._ids: dict[Value, int] = ids
        self.index: dict[tuple[int, int], list[IntRow]] = {}
        self.irows: set[IntRow] = set()
        self.rows_list: list[IntRow] = []
        #: Position of each int row in ``rows_list`` (swap-remove on
        #: retraction keeps the scan list dense without an O(n) shift).
        self._pos: dict[IntRow, int] = {}
        native = _backend.active_native()
        if native is not None:
            # One C call interns every row and builds the set, scan
            # list, position map and inverted index together.
            native.fill_state(
                instance,
                ids,
                values,
                self.irows,
                self.rows_list,
                self._pos,
                self.index,
            )
        else:
            for row in instance:
                self._admit(self.intern_row(row))

    def _admit(self, irow: IntRow) -> None:
        self.irows.add(irow)
        self._pos[irow] = len(self.rows_list)
        self.rows_list.append(irow)
        index = self.index
        for column, vid in enumerate(irow):
            key = (column, vid)
            bucket = index.get(key)
            if bucket is None:
                index[key] = [irow]
            else:
                bucket.append(irow)

    def _retract(self, irow: IntRow) -> None:
        """Drop ``irow`` from the view (no-op when absent).

        Called by :meth:`Instance.discard` on the subscribed view; the
        index buckets pay an O(bucket) list removal, which is fine on
        the (cold) deletion path.
        """
        pos = self._pos.pop(irow, None)
        if pos is None:
            return
        self.irows.discard(irow)
        rows_list = self.rows_list
        last = rows_list.pop()
        if pos < len(rows_list):
            rows_list[pos] = last
            self._pos[last] = pos
        index = self.index
        for column, vid in enumerate(irow):
            key = (column, vid)
            bucket = index.get(key)
            if bucket is not None:
                bucket.remove(irow)
                if not bucket:
                    del index[key]

    def intern(self, value: Value) -> int:
        """The dense id for one value (assigned on first sight).

        The table fast path, inlined: one dict probe for the hit case.
        Kept as a method for the walk-setup paths that intern a handful
        of prebound values (``GoalPlan.registers``, the hom engine's
        register loading); bulk row interning uses :meth:`intern_row`.
        """
        ids = self._ids
        idx = ids.get(value)
        if idx is None:
            values = self.values
            idx = len(values)
            ids[value] = idx
            values.append(value)
        return idx

    def intern_row(self, row: Row) -> IntRow:
        native = _backend.active_native()
        if native is not None:
            interned: IntRow = native.intern_row(row, self._ids, self.values)
            return interned
        ids = self._ids
        values = self.values
        out: list[int] = []
        for value in row:
            idx = ids.get(value)
            if idx is None:
                idx = len(values)
                ids[value] = idx
                values.append(value)
            out.append(idx)
        return tuple(out)

    def add(self, row: Row) -> Optional[IntRow]:
        """Insert ``row`` into instance and view; None when already present."""
        irow = self.intern_row(row)
        return irow if self.add_interned(irow) is not None else None

    def add_interned(self, irow: IntRow) -> Optional[Row]:
        """Insert a row already expressed as interned ids (the fire path).

        The kernel holds conclusion rows as registers of interned ids,
        so presence is one int-tuple set test and the Value row is only
        materialized for genuinely new rows (returned; None when the
        row was already present). Bypasses :meth:`Instance.add`'s arity
        check (kernel rows come from compiled conclusion templates,
        correct by construction) but keeps the instance's row set,
        inverted index and snapshot invalidation exactly in sync — the
        goal predicate and every post-chase consumer see a normal
        instance. Relies on the class invariant that ``irows`` mirrors
        the instance's row set exactly.
        """
        if irow in self.irows:
            return None
        values = self.values
        row = tuple(values[vid] for vid in irow)
        instance = self.instance
        instance._rows[row] = None
        instance._snapshot = None
        instance._epoch += 1
        index = instance._index
        for column, value in enumerate(row):
            key = (column, value)
            bucket = index.get(key)
            if bucket is None:
                index[key] = {row}
            else:
                bucket.add(row)
        self._admit(irow)
        view = instance._view
        if view is not None and view is not self:
            # A detached state is mutating an instance that also has a
            # subscribed view — keep the subscribed view honest too
            # (interned ids are shared through the instance's table).
            view._admit(irow)
        return row

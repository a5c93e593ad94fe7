"""Maintained universal models: the chase as a persistent, updatable object.

A one-shot chase throws its session away. The kernel is delta-driven,
so almost all of that work can be kept: a :class:`MaintainedModel`
owns a dependency program, a live chased
:class:`~repro.relational.instance.Instance` and a suspended
:class:`~repro.chase.plan.ChaseSession`, and keeps the instance a
universal model of its *base facts* across :meth:`insert` /
:meth:`delete` calls, each one goal-less, untraced ``ChaseSession.run``
that re-chases only what changed.

**Insert** is the cheap direction. Inserting constant rows Δ into a
chased fixpoint ``U = chase(D, Σ)`` and resuming the chase computes
``chase(U ∪ Δ, Σ)``, which is again a universal model of ``(D ∪ Δ, Σ)``:
every row of ``U`` has a valid derivation from ``D``, so the combined
firing history is a valid chase of ``D ∪ Δ``. The resumed session seeds
its delta frontier with just the new rows; the cross-round ``evaluated``
memos make every old trigger a set hit and the interned view is reused
as-is, so the cost scales with the *consequences* of Δ, not with ``U``.

**Delete** is DRed-style over-delete / re-derive. The session records,
per firing, the universal-slot key and the rows it added; the support
rows of each firing are recoverable from the key (antecedent atoms bind
only universal slots). Deleting base rows walks the derivation records
forward once, over-deleting exactly the derivation cone of the deleted
rows (rows that are themselves base facts are never over-deleted), then
discards the cone and re-chases. Activity is *not* monotone under
deletion — removing a conclusion witness can re-activate a trigger
anywhere — so the re-derive pass clears the trigger memos and seeds the
frontier with every surviving row. That pass is still far cheaper than
a from-scratch chase: no re-interning, no view rebuild, and almost all
triggers are immediately inactive against the surviving derived rows.

**Reads** follow the certain-answer discipline of data exchange, which
is what makes them independent of *which* universal model the
maintenance happened to produce (chase results are unique only up to
homomorphic equivalence):

* :meth:`answer` evaluates a conjunctive query on the maintained model
  through the compiled homomorphism engine and keeps the null-free
  tuples — the certain answers, identical for every universal model of
  the same base facts;
* :meth:`implies` model-checks a dependency against the model's *core*
  (cached, invalidated by the instance's mutation epoch). Cores of
  homomorphically equivalent instances are isomorphic, so the verdict
  is canonical — "does the dependency hold in the certain structure" —
  where checking the raw fixpoint would depend on firing order.

The differential suite (``tests/chase/test_maintain.py``) pins all of
this: after any interleaving of inserts and deletes the maintained
model is homomorphically equivalent to a from-scratch chase of the
final base facts, with equal cores, equal certain answers and equal
implication verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.chase.budget import Budget
from repro.chase.checkplan import find_violation
from repro.chase.plan import ChaseSession
from repro.chase.result import ChaseResult, ChaseStatus
from repro.dependencies.classify import Dependency
from repro.kernel.joins import IntRow
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    MetricsRegistry,
    Stopwatch,
)
from repro.relational.core import core_of
from repro.relational.instance import Instance, Row
from repro.relational.queries import ConjunctiveQuery
from repro.relational.schema import Schema
from repro.relational.values import NullFactory, Value, is_null

#: The maintenance operations reported into ``repro_model_maintain_seconds``.
MAINTAIN_OPS = ("register", "insert", "delete", "query", "implies")


class MaintainInstruments:
    """The maintained-model metric families, on one shared registry.

    Same idempotent-registration discipline as
    :class:`repro.service.instruments.ServiceInstruments`: every layer
    constructs its own view over the shared registry and lands on the
    same families, so the README's metric table and ``GET /metrics``
    agree by construction.
    """

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self.maintain_seconds = registry.histogram(
            "repro_model_maintain_seconds",
            "Wall seconds per maintained-model operation",
            labels=("op",),
            buckets=LATENCY_BUCKETS,
        )
        for op in MAINTAIN_OPS:
            self.maintain_seconds.labels(op=op)
        self.inserts = registry.counter(
            "repro_model_inserts_total",
            "insert() calls against maintained models",
        )
        self.deletes = registry.counter(
            "repro_model_deletes_total",
            "delete() calls against maintained models",
        )
        self.queries = registry.counter(
            "repro_model_queries_total",
            "Read operations against maintained models, by kind",
            labels=("kind",),
        )
        for kind in ("cq", "implies"):
            self.queries.labels(kind=kind)
        self.rows_base = registry.gauge(
            "repro_model_base_rows",
            "Base facts currently held across maintained models",
        )
        self.rows_derived = registry.counter(
            "repro_model_derived_rows_total",
            "Rows derived by incremental maintenance chases",
        )
        self.rows_overdeleted = registry.counter(
            "repro_model_overdeleted_rows_total",
            "Derived rows removed by the DRed over-delete pass",
        )
        self.active_models = registry.gauge(
            "repro_models_active",
            "Maintained models currently registered with the service",
        )


@dataclass(frozen=True)
class MaintenanceReport:
    """What one :meth:`MaintainedModel.insert` / ``delete`` actually did.

    ``applied`` counts base facts genuinely added or removed (requests
    for already-present / already-absent rows are no-ops); ``derived``
    counts rows the maintenance chase added beyond the base facts, and
    ``overdeleted`` the derivation-cone rows removed before the
    re-derive pass (always 0 for inserts). ``status`` is the chase
    status of the maintenance run — ``BUDGET_EXHAUSTED`` means the
    model is *not* currently a universal model and
    :attr:`MaintainedModel.saturated` is False.
    """

    op: str
    requested: int
    applied: int
    derived: int
    overdeleted: int
    status: ChaseStatus
    steps: int
    elapsed_seconds: float

    def to_json(self) -> dict:
        return {
            "op": self.op,
            "requested": self.requested,
            "applied": self.applied,
            "derived": self.derived,
            "overdeleted": self.overdeleted,
            "status": self.status.value,
            "steps": self.steps,
            "elapsed_seconds": self.elapsed_seconds,
        }


class MaintainedModel:
    """A chased universal model kept incrementally up to date.

    Owns the dependency program, the live instance, the suspended
    :class:`~repro.chase.plan.ChaseSession` (kernel view, trigger
    memos, derivation records) and the set of *base facts* — the
    extensional rows the model is a universal model *of*. All mutation
    goes through :meth:`insert` / :meth:`delete`; reads go through
    :meth:`answer` / :meth:`implies`.

    ``budget`` bounds each maintenance run (the dependency program may
    be non-terminating — the paper's subject is exactly that
    undecidability). A run that exhausts its budget leaves the model in
    a consistent-but-unsaturated state, reported via
    :attr:`saturated` and the returned
    :class:`MaintenanceReport`; reads still work but answer against the
    partial model.
    """

    def __init__(
        self,
        schema: Schema,
        dependencies: Sequence[Dependency],
        rows: Iterable[Row] = (),
        *,
        budget: Optional[Budget] = None,
        instruments: Optional[MaintainInstruments] = None,
    ):
        self.schema = schema
        self.dependencies = tuple(dependencies)
        self.budget = budget if budget is not None else Budget()
        self.instruments = instruments
        self.instance = Instance(schema)
        #: The extensional rows: what the model is a universal model of.
        self.base: set[Row] = set()
        self._fresh = NullFactory()
        self.session = ChaseSession(
            self.instance,
            self.dependencies,
            fresh=self._fresh,
            record_derivations=True,
        )
        self.status: ChaseStatus = ChaseStatus.TERMINATED
        self._core: Optional[Instance] = None
        self._core_epoch: int = -1
        rows = list(rows)
        if rows:
            self.insert(rows)

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def saturated(self) -> bool:
        """True when the last maintenance run reached a fixpoint."""
        return self.status is ChaseStatus.TERMINATED

    def __len__(self) -> int:
        return len(self.instance)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<MaintainedModel base={len(self.base)} "
            f"rows={len(self.instance)} deps={len(self.dependencies)} "
            f"status={self.status.value}>"
        )

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def insert(self, rows: Iterable[Row]) -> MaintenanceReport:
        """Add base facts; resume the chase from just the new rows."""
        watch = Stopwatch()
        rows = [tuple(row) for row in rows]
        state = self.session.state
        delta: list[IntRow] = []
        before = len(self.instance)
        for row in rows:
            if self.instance.add(row):
                delta.append(state.intern_row(row))
            # Already-derived rows become base facts too: from now on
            # they survive any deletion cone.
            self.base.add(row)
        applied = len(delta)
        steps = 0
        if delta or not self.saturated:
            # A previously exhausted run may resume: seed with the new
            # rows plus (if unsaturated) the whole surviving frontier.
            frontier = delta if self.saturated else list(state.rows_list)
            result = self._run(frontier)
            steps = result.stats.steps
        derived = len(self.instance) - before - applied
        report = MaintenanceReport(
            op="insert",
            requested=len(rows),
            applied=applied,
            derived=derived,
            overdeleted=0,
            status=self.status,
            steps=steps,
            elapsed_seconds=watch.elapsed(),
        )
        instruments = self.instruments
        if instruments is not None:
            instruments.inserts.inc()
            instruments.rows_base.inc(applied)
            instruments.rows_derived.inc(derived)
            instruments.maintain_seconds.labels(op="insert").observe(
                report.elapsed_seconds
            )
        return report

    def delete(self, rows: Iterable[Row]) -> MaintenanceReport:
        """Remove base facts; over-delete their derivation cone, re-derive.

        Rows that are not base facts are ignored — derived rows cannot
        be deleted directly (they are consequences, not assertions).
        """
        watch = Stopwatch()
        rows = [tuple(row) for row in rows]
        removed_base = []
        for row in rows:
            if row in self.base:
                self.base.discard(row)
                removed_base.append(row)
        if not removed_base:
            report = MaintenanceReport(
                op="delete",
                requested=len(rows),
                applied=0,
                derived=0,
                overdeleted=0,
                status=self.status,
                steps=0,
                elapsed_seconds=watch.elapsed(),
            )
            self._note_delete(report)
            return report
        session = self.session
        state = session.state
        plans = session.plans
        doomed: set[IntRow] = {state.intern_row(row) for row in removed_base}
        base_irows: set[IntRow] = {
            state.intern_row(row) for row in self.base
        }
        # One forward pass over the derivation records suffices: every
        # record's support rows are base facts or rows derived by an
        # earlier record, so the cone closes in record order.
        overdeleted: set[IntRow] = set(doomed)
        survivors: dict[tuple[int, tuple[int, ...]], tuple[IntRow, ...]] = {}
        for (plan_index, key), derived_irows in session.derivations.items():
            support_hit = False
            for atom_slots in plans[plan_index].antecedent_atom_slots:
                if tuple(key[slot] for slot in atom_slots) in overdeleted:
                    support_hit = True
                    break
            if support_hit:
                for irow in derived_irows:
                    if irow not in base_irows:
                        overdeleted.add(irow)
            else:
                survivors[(plan_index, key)] = derived_irows
        session.derivations = survivors
        values = state.values
        removed = 0
        for irow in overdeleted:
            if self.instance.discard(tuple(values[vid] for vid in irow)):
                removed += 1
        before = len(self.instance)
        # Deletion can re-activate triggers anywhere (their conclusion
        # witness may be gone), so the memos must go; the re-derive pass
        # seeds from every surviving row but reuses the interned view.
        session.clear_memos()
        result = self._run(state.rows_list)
        report = MaintenanceReport(
            op="delete",
            requested=len(rows),
            applied=len(removed_base),
            derived=len(self.instance) - before,
            overdeleted=removed - len(removed_base),
            status=self.status,
            steps=result.stats.steps,
            elapsed_seconds=watch.elapsed(),
        )
        self._note_delete(report)
        return report

    def _note_delete(self, report: MaintenanceReport) -> None:
        instruments = self.instruments
        if instruments is not None:
            instruments.deletes.inc()
            instruments.rows_base.inc(-report.applied)
            instruments.rows_derived.inc(report.derived)
            instruments.rows_overdeleted.inc(max(report.overdeleted, 0))
            instruments.maintain_seconds.labels(op="delete").observe(
                report.elapsed_seconds
            )

    def _run(self, delta: Sequence[IntRow]) -> ChaseResult:
        result = self.session.run(delta, self.budget.start())
        self.status = result.status
        return result

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def answer(self, query: ConjunctiveQuery) -> set[tuple[Value, ...]]:
        """The certain answers of ``query`` over the base facts.

        Evaluates on the maintained model through the compiled
        homomorphism engine (the instance's cached kernel view makes
        repeated small queries cheap) and keeps the null-free tuples —
        the tuples true in *every* model of the base facts under the
        program, independent of which universal model maintenance
        produced. A boolean query answers ``{()}`` (certainly true) or
        ``set()``.
        """
        watch = Stopwatch()
        certain = {
            answer
            for answer in query.answers(self.instance)
            if not any(is_null(value) for value in answer)
        }
        instruments = self.instruments
        if instruments is not None:
            instruments.queries.labels(kind="cq").inc()
            instruments.maintain_seconds.labels(op="query").observe(
                watch.elapsed()
            )
        return certain

    def implies(self, dependency: Dependency) -> bool:
        """Does ``dependency`` hold in the model's core?

        The core is the canonical universal model (unique up to
        isomorphism across chase orders), so this verdict — unlike a
        check against the raw fixpoint, which can see order-dependent
        redundant null rows — is a property of the base facts and the
        program alone. The core is cached and invalidated by the
        instance's mutation epoch.
        """
        watch = Stopwatch()
        verdict = find_violation(dependency, self.core()) is None
        instruments = self.instruments
        if instruments is not None:
            instruments.queries.labels(kind="implies").inc()
            instruments.maintain_seconds.labels(op="implies").observe(
                watch.elapsed()
            )
        return verdict

    def core(self) -> Instance:
        """The core of the maintained model (cached until mutation)."""
        if self._core is None or self._core_epoch != self.instance.epoch:
            epoch = self.instance.epoch
            self._core = core_of(self.instance)
            self._core_epoch = epoch
        return self._core

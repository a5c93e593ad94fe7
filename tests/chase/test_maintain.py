"""Differential tests: maintained models vs from-scratch chases.

A :class:`~repro.chase.maintain.MaintainedModel` promises that after
*any* interleaving of inserts and deletes its instance is a universal
model of the surviving base facts — the same thing a from-scratch chase
of those facts computes. Chase results are unique only up to homomorphic
equivalence, so the comparisons here are the semantic invariants:

* the maintained instance and the fresh chase are homomorphically
  equivalent, with equal-size (isomorphic) cores;
* certain conjunctive-query answers agree exactly;
* implication verdicts (checked on the core) agree exactly.

The from-scratch chase runs on both the production kernel and the
reference chase of ``tests/oracle`` (the ``kernel`` parameter).
"""

import random

import pytest

from repro.chase.budget import Budget
from repro.chase.checkplan import find_violation
from repro.chase.engine import chase
from repro.chase.maintain import MaintainedModel
from repro.chase.result import ChaseStatus
from repro.dependencies.parser import parse_td
from repro.relational.core import core_of, homomorphically_equivalent
from repro.relational.instance import Instance
from repro.relational.queries import ConjunctiveQuery
from repro.relational.schema import Schema
from repro.relational.values import Const, is_null

#: Every test runs under both join backends (the native leg skips
#: visibly when the extension is not built): the same seeds that hold
#: compiled ≡ legacy also hold native ≡ python.
pytestmark = pytest.mark.usefixtures("join_backend")
from repro.workloads.generators import (
    random_instance,
    random_td,
    weakly_acyclic_dependencies,
)

from tests.oracle import chase as oracle
from tests.oracle.modelcheck import find_violation as oracle_find_violation

#: The from-scratch chase: production kernel and reference chase.
KERNELS = {"compiled": chase, "legacy": oracle.chase}


def _queries_from(dependencies):
    """CQs whose bodies are the dependencies' antecedent conjunctions."""
    queries = []
    for dependency in dependencies:
        body = list(dependency.antecedents)
        variables = sorted(
            {variable for atom in body for variable in atom},
            key=lambda v: v.name,
        )
        queries.append(
            ConjunctiveQuery(dependency.schema, variables[:2], body)
        )
    return queries


def _certain_answers(query, instance):
    return {
        answer
        for answer in query.answers(instance)
        if not any(is_null(value) for value in answer)
    }


def _assert_equivalent(model, dependencies, kernel):
    """The maintained model vs a from-scratch chase of its base facts."""
    fresh = KERNELS[kernel](Instance(model.schema, model.base), dependencies)
    assert fresh.status is ChaseStatus.TERMINATED
    assert homomorphically_equivalent(model.instance, fresh.instance)
    model_core = model.core()
    fresh_core = core_of(fresh.instance)
    assert len(model_core) == len(fresh_core)
    for query in _queries_from(dependencies):
        assert model.answer(query) == _certain_answers(query, fresh.instance)
    probes = list(dependencies) + [
        random_td(seed=len(model.base) * 13 + 7, existential_probability=0.5)
    ]
    for probe in probes:
        assert model.implies(probe) == (
            find_violation(probe, fresh_core) is None
        ), probe


class TestRandomInterleavings:
    """Insert/delete scripts against weakly acyclic programs."""

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("seed", range(6))
    def test_interleaved_inserts_and_deletes(self, seed, kernel):
        rng = random.Random(seed * 1009 + 17)
        dependencies = weakly_acyclic_dependencies(
            seed=seed, count=4, arity=3, include_eids=(seed % 2 == 0)
        )
        universe = list(
            random_instance(seed=seed + 400, rows=16, arity=3).rows
        )
        model = MaintainedModel(
            dependencies[0].schema,
            dependencies,
            rng.sample(universe, 8),
        )
        for __ in range(6):
            if model.base and rng.random() < 0.4:
                victims = rng.sample(
                    sorted(model.base, key=repr),
                    rng.randint(1, min(3, len(model.base))),
                )
                report = model.delete(victims)
                assert report.op == "delete"
                assert report.applied == len(set(victims))
            else:
                additions = rng.sample(universe, rng.randint(1, 4))
                report = model.insert(additions)
                assert report.op == "insert"
                assert report.overdeleted == 0
            assert model.saturated
            assert model.base <= set(model.instance.rows)
        _assert_equivalent(model, dependencies, kernel)

    @pytest.mark.parametrize("seed", range(4))
    def test_delete_everything_then_rebuild(self, seed):
        dependencies = weakly_acyclic_dependencies(seed=seed, count=3)
        rows = list(random_instance(seed=seed, rows=10).rows)
        model = MaintainedModel(dependencies[0].schema, dependencies, rows)
        model.delete(list(model.base))
        assert model.base == set()
        assert len(model.instance) == 0
        model.insert(rows)
        _assert_equivalent(model, dependencies, "compiled")


class TestDeletionSemantics:
    """The DRed over-delete/re-derive pass, on readable fixtures."""

    def setup_method(self):
        self.schema = Schema(["FROM", "TO"])
        self.transitivity = parse_td(
            "R(x, y) & R(y, z) -> R(x, z)", self.schema
        )

    def _consts(self, *names):
        return [Const(name) for name in names]

    def test_delete_removes_exactly_the_derivation_cone(self):
        a, b, c, d = self._consts("a", "b", "c", "d")
        model = MaintainedModel(
            self.schema,
            [self.transitivity],
            [(a, b), (b, c), (c, d)],
        )
        assert len(model.instance) == 6  # chain + 3 closures
        report = model.delete([(c, d)])
        assert report.applied == 1
        # (b,d), (a,d) were derived only through (c,d): over-deleted and
        # not re-derived; (a,c) survives via re-derivation.
        assert set(model.instance.rows) == {(a, b), (b, c), (a, c)}
        assert model.saturated

    def test_rederivation_through_surviving_path(self):
        a, b, c = self._consts("a", "b", "c")
        # (a,c) is derivable from the chain *and* asserted as base: the
        # cone walk must never remove a base fact.
        model = MaintainedModel(
            self.schema,
            [self.transitivity],
            [(a, b), (b, c), (a, c)],
        )
        report = model.delete([(b, c)])
        assert report.applied == 1
        assert set(model.instance.rows) == {(a, b), (a, c)}
        # And the other way around: a derived row re-derives when an
        # alternative support survives.
        model = MaintainedModel(
            self.schema,
            [self.transitivity],
            [(a, b), (b, c), (a, a)],
        )
        assert (a, c) in model.instance
        model.delete([(a, a)])
        assert (a, c) in model.instance  # still derivable from the chain

    def test_deleting_non_base_rows_is_a_noop(self):
        a, b, c = self._consts("a", "b", "c")
        model = MaintainedModel(
            self.schema, [self.transitivity], [(a, b), (b, c)]
        )
        derived = (a, c)
        assert derived in model.instance
        report = model.delete([derived, (c, a)])
        assert report.applied == 0
        assert report.overdeleted == 0
        assert derived in model.instance  # consequences are not assertions

    def test_insert_promotes_derived_row_to_base(self):
        a, b, c = self._consts("a", "b", "c")
        model = MaintainedModel(
            self.schema, [self.transitivity], [(a, b), (b, c)]
        )
        report = model.insert([(a, c)])  # already derived
        assert report.applied == 0  # not new in the instance...
        assert (a, c) in model.base  # ...but now an assertion
        model.delete([(a, b)])
        assert (a, c) in model.instance  # survives as a base fact


class TestBudgetsAndResumption:
    """Exhausted maintenance runs stay consistent and resumable."""

    def test_exhausted_insert_reports_and_resumes(self):
        schema = Schema(["FROM", "TO"])
        successor = parse_td("R(x, y) -> R(y, s)", schema)  # non-terminating
        model = MaintainedModel(
            schema,
            [successor],
            budget=Budget(max_steps=5, max_seconds=None),
        )
        report = model.insert([(Const("a"), Const("b"))])
        assert report.status is ChaseStatus.BUDGET_EXHAUSTED
        assert not model.saturated
        rows_before = len(model.instance)
        # An empty insert on an unsaturated model resumes the chase.
        resumed = model.insert([])
        assert resumed.steps > 0
        assert len(model.instance) > rows_before

    def test_terminating_insert_after_exhaustion_reports_status(self):
        schema = Schema(["FROM", "TO"])
        transitivity = parse_td("R(x, y) & R(y, z) -> R(x, z)", schema)
        model = MaintainedModel(
            schema,
            [transitivity],
            [(Const(i), Const(i + 1)) for i in range(6)],
            budget=Budget(max_steps=3, max_seconds=None),
        )
        assert not model.saturated
        model.budget = Budget()
        report = model.insert([])
        assert report.status is ChaseStatus.TERMINATED
        assert model.saturated
        fresh = chase(Instance(schema, model.base), [transitivity])
        assert homomorphically_equivalent(model.instance, fresh.instance)


class TestCheckerEpochRegression:
    """Equal-count discard+add must never leave a stale compiled view.

    The previous ModelChecker cached a detached KernelState and detected
    out-of-band mutation by row *count*; discarding one row and adding
    another left the count equal and the view stale. The subscribed
    kernel view (mutation hooks + epoch counter) closes that hole.
    """

    def test_equal_count_discard_add_stays_fresh(self):
        from repro.chase.checkplan import ModelChecker

        schema = Schema(["FROM", "TO"])
        symmetry = parse_td("R(x, y) -> R(y, x)", schema)
        a, b, c = Const("a"), Const("b"), Const("c")
        instance = Instance(schema, [(a, b), (b, a)])
        model = ModelChecker(instance)
        assert model.holds_in(symmetry)
        # Same row count, different rows: the old count heuristic saw
        # "no mutation" here and kept serving the satisfied verdict.
        instance.discard((b, a))
        instance.add((b, c))
        assert not model.holds_in(symmetry)
        # Witness enumeration order may differ between checkers; what
        # must agree is the verdict, and the witness must be genuine.
        witness = model.find_violation(symmetry)
        image = tuple(witness[variable] for variable in symmetry.conclusion)
        assert tuple(witness[v] for v in symmetry.antecedents[0]) in instance
        assert image not in instance
        assert oracle_find_violation(symmetry, instance) is not None
        # Epochs moved once per mutation; a third add syncs too.
        assert instance.epoch >= 4
        instance.add((c, b))
        instance.add((a, b))  # duplicate: no epoch bump, no view change
        assert not model.holds_in(symmetry)  # (b,a) still missing
        instance.add((b, a))
        assert model.holds_in(symmetry)

    def test_copy_detaches_the_view(self):
        schema = Schema(["FROM", "TO"])
        a, b = Const("a"), Const("b")
        instance = Instance(schema, [(a, b)])
        view = instance.kernel_view()
        clone = instance.copy()
        assert clone._view is None
        clone.add((b, a))
        # The original's subscribed view must not see the clone's row.
        assert view is instance.kernel_view()
        assert len(instance.kernel_view().rows_list) == 1

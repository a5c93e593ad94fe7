"""Differential tests: compiled homomorphism engine vs the generic search.

The compiled engine (:mod:`repro.relational.homplan`) must be
*extensionally identical* to the reference search kept in
:mod:`tests.oracle.homomorphism` — not just "finds one when one
exists" but the **same set of assignments** on every input, since
consumers enumerate (CQ answers, axiom search) and not only test. On
top of the raw-engine agreement, the consumer layers are held together:
cores computed by either engine are isomorphic, retraction searches
agree on properness, CQ containment verdicts match, and minimization is
idempotent and equivalence-preserving under both engines.
"""

import random
from types import SimpleNamespace

import pytest

from repro.chase.budget import Budget
from repro.chase.engine import chase
from repro.chase.result import ChaseStatus
from repro.dependencies.template import is_variable
from repro.relational import core, homplan
from repro.relational.homomorphism import apply_assignment
from repro.relational.instance import Instance
from repro.relational.queries import ConjunctiveQuery
from repro.relational.values import LabeledNull, is_null
from repro.workloads.generators import (
    random_cq,
    random_instance,
    random_td,
    weakly_acyclic_dependencies,
)

from tests.oracle import homomorphism as oracle

#: Every test runs under both join backends (the native leg skips
#: visibly when the extension is not built): the same seeds that hold
#: compiled ≡ legacy also hold native ≡ python.
pytestmark = pytest.mark.usefixtures("join_backend")

#: One namespace per engine: the production code and the reference
#: search in tests/oracle, under the same names.
ENGINE_OPS = {
    "legacy": SimpleNamespace(
        iter_homomorphisms=oracle.iter_homomorphisms,
        find_homomorphism=oracle.find_homomorphism,
        count_homomorphisms=oracle.count_homomorphisms,
        extend_homomorphism=oracle.extend_homomorphism,
        find_retraction_assignment=oracle.find_retraction_assignment,
        find_retraction=oracle.find_retraction,
        core_of=oracle.core_of,
        is_core=oracle.is_core,
        homomorphically_equivalent=oracle.homomorphically_equivalent,
        answers=oracle.cq_answers,
        is_contained_in=oracle.cq_contained_in,
        is_equivalent_to=oracle.cq_equivalent,
        minimized=oracle.cq_minimized,
    ),
    "compiled": SimpleNamespace(
        iter_homomorphisms=homplan.iter_homomorphisms,
        find_homomorphism=homplan.find_homomorphism,
        count_homomorphisms=homplan.count_homomorphisms,
        extend_homomorphism=homplan.extend_homomorphism,
        find_retraction_assignment=homplan.find_retraction_assignment,
        find_retraction=core.find_retraction,
        core_of=core.core_of,
        is_core=core.is_core,
        homomorphically_equivalent=core.homomorphically_equivalent,
        answers=ConjunctiveQuery.answers,
        is_contained_in=ConjunctiveQuery.is_contained_in,
        is_equivalent_to=ConjunctiveQuery.is_equivalent_to,
        minimized=ConjunctiveQuery.minimized,
    ),
}
ENGINES = tuple(ENGINE_OPS)


def _assignment_set(source_rows, target, engine, **kwargs):
    return {
        frozenset(h.items())
        for h in ENGINE_OPS[engine].iter_homomorphisms(
            source_rows, target, **kwargs
        )
    }


def _nullify(instance, fraction, seed):
    """Replace a random subset of constants with fresh labelled nulls."""
    rng = random.Random(seed)
    mapping = {}

    def remap(value):
        if value not in mapping:
            if rng.random() < fraction:
                mapping[value] = LabeledNull(10_000 + len(mapping))
            else:
                mapping[value] = value
        return mapping[value]

    return instance.map_values(remap)


def _chased_with_nulls(seed):
    """A terminated chase result of a weakly acyclic embedded set."""
    dependencies = weakly_acyclic_dependencies(
        count=2, include_eids=True, seed=seed
    )
    start = random_instance(seed=seed, rows=6)
    result = chase(start, dependencies, budget=Budget(max_steps=400))
    assert result.status is ChaseStatus.TERMINATED
    return result.instance


class TestEngineAgreement:
    """Identical homomorphism *sets*, not just existence."""

    @pytest.mark.parametrize("seed", range(10))
    def test_null_flexible_assignment_sets(self, seed):
        source = _nullify(random_instance(seed=seed, rows=5), 0.5, seed)
        target = random_instance(seed=seed + 77, rows=8)
        sets = {
            engine: _assignment_set(source.rows, target, engine)
            for engine in ENGINES
        }
        assert sets["compiled"] == sets["legacy"]

    @pytest.mark.parametrize("seed", range(10))
    def test_variable_flexible_assignment_sets(self, seed):
        """The dependency/CQ shape: variable atoms into a packed tableau."""
        source_td = random_td(seed=seed, antecedents=3)
        tableau_td = random_td(seed=seed + 500, antecedents=4)
        tableau = Instance(
            tableau_td.schema, (tuple(a) for a in tableau_td.antecedents)
        )
        sets = {
            engine: _assignment_set(
                source_td.antecedents, tableau, engine, flexible=is_variable
            )
            for engine in ENGINES
        }
        assert sets["compiled"] == sets["legacy"]

    @pytest.mark.parametrize("seed", range(6))
    def test_partial_prebinding_agreement(self, seed):
        source = _nullify(random_instance(seed=seed, rows=5), 0.6, seed)
        target = random_instance(seed=seed + 31, rows=8)
        nulls = sorted(
            (v for v in source.active_domain() if is_null(v)),
            key=lambda v: v.label,
        )
        if not nulls:
            pytest.skip("no nulls drawn for this seed")
        # Pre-bind the first null to every value of its column in turn;
        # both engines must agree on every resulting (possibly empty) set.
        pinned = nulls[0]
        column = next(
            c
            for row in source.rows
            for c, v in enumerate(row)
            if v == pinned
        )
        for value in sorted(target.column_values(column), key=repr):
            partial = {pinned: value}
            sets = {
                engine: _assignment_set(
                    source.rows, target, engine, partial=partial
                )
                for engine in ENGINES
            }
            assert sets["compiled"] == sets["legacy"]
            for assignment in sets["compiled"]:
                assert (pinned, value) in assignment

    def test_empty_source_yields_exactly_partial(self):
        target = random_instance(seed=3, rows=4)
        null = LabeledNull(1)
        some_value = next(iter(target.rows))[0]
        for engine in ENGINES:
            assignments = list(
                ENGINE_OPS[engine].iter_homomorphisms(
                    [], target, partial={null: some_value}
                )
            )
            assert assignments == [{null: some_value}]

    def test_unseen_constant_matches_nothing(self):
        source = random_instance(seed=9, rows=3)
        target = random_instance(seed=10, rows=3, constants_per_column=2)
        for engine in ENGINES:
            found = ENGINE_OPS[engine].find_homomorphism(source.rows, target)
            legacy_rows_present = all(row in target for row in source.rows)
            assert (found is not None) == legacy_rows_present

    @pytest.mark.parametrize("seed", range(5))
    def test_find_and_extend_consistent_with_sets(self, seed):
        source = _nullify(random_instance(seed=seed, rows=4), 0.5, seed + 1)
        target = random_instance(seed=seed + 13, rows=7)
        full = _assignment_set(source.rows, target, "legacy")
        for engine in ENGINES:
            found = ENGINE_OPS[engine].find_homomorphism(source.rows, target)
            assert (found is not None) == bool(full)
            if found is not None:
                assert frozenset(found.items()) in full
                # An already-complete assignment must extend trivially.
                extended = ENGINE_OPS[engine].extend_homomorphism(
                    found, source.rows, target
                )
                assert extended is not None
                assert frozenset(extended.items()) in full


class TestCountLimits:
    """Regression: ``limit=0`` used to return 1 (post-increment check)."""

    def _fixture(self):
        target = random_instance(seed=2, rows=6)
        source = _nullify(random_instance(seed=2, rows=3), 0.7, 5)
        return source, target

    @pytest.mark.parametrize("engine", ENGINES)
    def test_limit_zero_is_zero(self, engine):
        source, target = self._fixture()
        assert (
            ENGINE_OPS[engine].count_homomorphisms(source.rows, target, limit=0)
            == 0
        )

    def test_legacy_module_limit_zero_is_zero(self):
        source, target = self._fixture()
        assert oracle.count_homomorphisms(source.rows, target, limit=0) == 0
        assert oracle.count_homomorphisms(source.rows, target, limit=-3) == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_limit_one_caps_at_one(self, engine):
        source, target = self._fixture()
        count = ENGINE_OPS[engine].count_homomorphisms
        total = count(source.rows, target)
        capped = count(source.rows, target, limit=1)
        assert capped == min(1, total)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_unlimited_counts_agree(self, engine):
        source, target = self._fixture()
        assert ENGINE_OPS[engine].count_homomorphisms(
            source.rows, target
        ) == oracle.count_homomorphisms(source.rows, target)


class TestRetractionAndCores:
    @pytest.mark.parametrize("seed", range(6))
    def test_retraction_properness_agreement(self, seed):
        chased = _chased_with_nulls(seed)
        verdicts = {}
        for engine in ENGINES:
            assignment = ENGINE_OPS[engine].find_retraction(chased)
            verdicts[engine] = assignment is not None
            if assignment is not None:
                # The witness must be a genuine proper retraction.
                image = {
                    apply_assignment(row, assignment) for row in chased.rows
                }
                assert image <= set(chased.rows)
                assert len(image) < len(chased)
        assert verdicts["compiled"] == verdicts["legacy"]

    @pytest.mark.parametrize("seed", range(6))
    def test_cores_isomorphic(self, seed):
        chased = _chased_with_nulls(seed)
        cores = {engine: ENGINE_OPS[engine].core_of(chased) for engine in ENGINES}
        assert len(cores["compiled"]) == len(cores["legacy"])
        assert core.homomorphically_equivalent(cores["compiled"], cores["legacy"])
        for engine in ENGINES:
            ops = ENGINE_OPS[engine]
            assert ops.is_core(cores["compiled"])
            assert ops.is_core(cores["legacy"])
            # The core embeds back into what it retracted from.
            assert ops.homomorphically_equivalent(chased, cores["compiled"])

    @pytest.mark.parametrize("seed", range(4))
    def test_retraction_assignment_with_partial(self, seed):
        """The CQ-minimization shape: body retraction fixing the head."""
        query = random_cq(seed=seed, body_atoms=3, redundant_atoms=2)
        body = [tuple(atom) for atom in query.body]
        body_instance = Instance(query.schema, body)
        head_identity = {variable: variable for variable in query.head}
        results = {}
        for engine in ENGINES:
            assignment = ENGINE_OPS[engine].find_retraction_assignment(
                body,
                body_instance,
                partial=head_identity,
                flexible=is_variable,
            )
            results[engine] = assignment is not None
            if assignment is not None:
                for variable in query.head:
                    assert assignment[variable] == variable
                image = {
                    apply_assignment(atom, assignment, flexible=is_variable)
                    for atom in body
                }
                assert len(image) < len(body)
        assert results["compiled"] == results["legacy"]


class TestConjunctiveQueries:
    @pytest.mark.parametrize("seed", range(8))
    def test_containment_verdicts_identical(self, seed):
        first = random_cq(seed=seed, body_atoms=3, head_size=1)
        second = random_cq(seed=seed + 300, body_atoms=2, head_size=1)
        for left, right in ((first, second), (second, first), (first, first)):
            verdicts = {
                engine: ENGINE_OPS[engine].is_contained_in(left, right)
                for engine in ENGINES
            }
            assert verdicts["compiled"] == verdicts["legacy"]

    @pytest.mark.parametrize("seed", range(8))
    def test_answers_identical(self, seed):
        query = random_cq(seed=seed, body_atoms=2, head_size=2)
        instance = random_instance(seed=seed + 41, rows=9)
        answers = {
            engine: ENGINE_OPS[engine].answers(query, instance)
            for engine in ENGINES
        }
        assert answers["compiled"] == answers["legacy"]

    @pytest.mark.parametrize("seed", range(8))
    def test_minimized_idempotent_and_self_equivalent(self, seed):
        query = random_cq(seed=seed, body_atoms=3, redundant_atoms=3)
        for engine in ENGINES:
            minimize = ENGINE_OPS[engine].minimized
            minimized = minimize(query)
            # Idempotence: a minimized query has no redundancy left.
            assert minimize(minimized) == minimized
            # Equivalence is preserved (checked under both engines).
            for check_engine in ENGINES:
                equivalent = ENGINE_OPS[check_engine].is_equivalent_to
                assert equivalent(query, minimized)
                assert equivalent(minimized, minimized)
        # Minimal bodies are unique up to renaming: same size either way.
        assert len(ENGINE_OPS["compiled"].minimized(query).body) == len(
            ENGINE_OPS["legacy"].minimized(query).body
        )

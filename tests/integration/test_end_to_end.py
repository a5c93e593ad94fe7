"""Integration tests: whole-pipeline behaviours across subsystems."""

import pytest

from repro.chase.budget import Budget
from repro.chase.engine import chase, replay
from repro.chase.implication import InferenceStatus, implies
from repro.chase.result import ChaseStatus
from repro.core.inference import Semantics, infer
from repro.dependencies.diagram import diagram_of
from repro.dependencies.parser import parse_td
from repro.reduction.model import counterexample_database, verify_counterexample
from repro.reduction.proofs import prove_from_derivation
from repro.reduction.theorem import (
    InstanceClass,
    classify_instance,
    prove_direction_a,
    prove_direction_b,
)
from repro.relational.core import core_of, homomorphically_equivalent
from repro.semigroups.rewriting import word_problem
from repro.semigroups.search import find_counter_model
from repro.workloads.garment import figure1_dependency, garment_database
from repro.workloads.instances import (
    negative_family,
    positive_chain_family,
)

from tests.oracle import chase as oracle
from tests.oracle.chase import ChaseVariant


class TestReductionPipeline:
    """The Main Theorem, as an executable statement."""

    def test_direction_a_guided_and_generic_agree(self, positive):
        report = prove_direction_a(positive, cross_check=True)
        assert report.generic_outcome.status is InferenceStatus.PROVED
        # The guided proof is a certificate for the same statement.
        report.proof.verify()

    def test_direction_b_database_refutes_chase_claim(self, negative_encoding):
        """The finite counterexample shows the chase can never derive
        D0's conclusion from these dependencies: if it could, the proof
        would transfer to every model, including this one."""
        report = prove_direction_b(negative_encoding.presentation.__class__
                                   .with_zero_equations(["A0", "0"]))
        assert report.report.ok

    def test_classification_matrix(self, positive, negative, gap):
        assert (
            classify_instance(positive).instance_class
            is InstanceClass.A0_COLLAPSES
        )
        assert (
            classify_instance(negative).instance_class
            is InstanceClass.FINITELY_REFUTABLE
        )
        assert classify_instance(gap).instance_class is InstanceClass.UNKNOWN

    @pytest.mark.parametrize("chain", [1, 2])
    def test_chain_family_end_to_end(self, chain):
        presentation = positive_chain_family(chain)
        report = prove_direction_a(presentation, max_word_length=chain + 4)
        report.proof.verify()

    @pytest.mark.parametrize("extra", [0, 1])
    def test_negative_family_end_to_end(self, extra):
        presentation = negative_family(extra)
        report = prove_direction_b(presentation)
        assert report.report.ok


class TestProofTransfer:
    """A guided chase proof replays on ANY database satisfying D.

    This is the semantic content of chase soundness: applying the proof's
    steps to a model of D only adds tuples that were already derivable,
    so D0's conclusion pattern must appear — which is why no model of D
    can violate D0 once a proof exists.
    """

    def test_steps_fire_only_encoded_dependencies(self, positive):
        derivation = word_problem(positive)
        from repro.reduction.encode import encode

        encoding = encode(positive)
        proof = prove_from_derivation(encoding, derivation)
        replayed = replay(proof.start, proof.steps)
        assert replayed.rows == proof.final.rows


class TestChaseVariantsAgree:
    """The production (restricted) chase against the reference oblivious
    chase of tests/oracle."""

    def test_standard_and_oblivious_homomorphically_equivalent(self):
        schema_td = parse_td("R(x, y) & R(y, z) -> R(x, z)")
        start, __ = parse_td(
            "R(a, b) & R(b, c) & R(c, d) -> R(a, d)"
        ).freeze()
        standard = chase(start, [schema_td])
        oblivious = oracle.chase(
            start, [schema_td], variant=ChaseVariant.OBLIVIOUS,
            budget=Budget(max_steps=500),
        )
        assert standard.status is ChaseStatus.TERMINATED
        assert oblivious.status is ChaseStatus.TERMINATED
        assert homomorphically_equivalent(standard.instance, oblivious.instance)

    def test_cores_of_chase_results_coincide_for_full_tds(self):
        td = parse_td("R(x, y) & R(y, z) -> R(x, z)")
        start, __ = parse_td("R(a, b) & R(b, c) -> R(a, c)").freeze()
        standard = chase(start, [td]).instance
        oblivious = oracle.chase(
            start, [td], variant=ChaseVariant.OBLIVIOUS,
            budget=Budget(max_steps=500),
        ).instance
        # Full TDs invent no nulls: cores are literally equal row sets.
        assert core_of(standard).rows == core_of(oblivious).rows


class TestGarmentScenario:
    def test_repair_then_modelcheck_then_product(self):
        fig1 = figure1_dependency()
        repaired = chase(garment_database(), [fig1]).instance
        assert fig1.holds_in(repaired)
        from repro.relational.product import direct_product

        squared = direct_product(repaired, repaired)
        assert fig1.holds_in(squared)

    def test_diagram_round_trip_preserves_semantics(self):
        fig1 = figure1_dependency()
        rebuilt = diagram_of(fig1).to_dependency()
        # Logical equivalence via implication both ways.
        assert implies([fig1], rebuilt).status is InferenceStatus.PROVED
        assert implies([rebuilt], fig1).status is InferenceStatus.PROVED


class TestSemanticsFacade:
    def test_reduction_negative_instance_via_generic_facade(
        self, negative_encoding
    ):
        """infer() on the encoded negative instance: the chase diverges
        (embedded TDs), and the reduction's own counterexample database is
        the independent ground truth that DISPROVED would be correct.
        UNKNOWN is also acceptable from the bounded generic solver; what
        must never happen is PROVED."""
        report = infer(
            negative_encoding.dependencies,
            negative_encoding.d0,
            semantics=Semantics.FINITE,
            budget=Budget(max_steps=200, max_seconds=20),
            finite_search_restarts=5,
            finite_search_seconds=3.0,
        )
        assert report.status is not InferenceStatus.PROVED

"""Moderate-scale stress tests: the pipelines at larger-than-unit sizes."""

import pytest

from repro.chase.budget import Budget
from repro.chase.engine import chase
from repro.chase.implication import InferenceStatus, implies
from repro.chase.result import ChaseStatus
from repro.dependencies.classify import summarize
from repro.reduction.encode import encode
from repro.reduction.proofs import prove_from_derivation
from repro.reduction.theorem import prove_direction_b
from repro.relational.instance import Instance
from repro.relational.schema import Schema
from repro.relational.values import Const
from repro.semigroups.rewriting import word_problem
from repro.workloads.generators import transitivity_family
from repro.workloads.instances import negative_family, positive_chain_family

from tests.oracle import chase as oracle
from tests.oracle.chase import ChaseVariant


class TestLargePositiveChain:
    def test_chain_six_guided_proof(self):
        """A 6-link chain: 14-step derivation, ~28 chase steps, verified."""
        presentation = positive_chain_family(6)
        encoding = encode(presentation)
        derivation = word_problem(presentation, max_length=10)
        assert derivation is not None
        proof = prove_from_derivation(encoding, derivation)
        proof.verify()
        assert proof.step_count <= 3 * derivation.length

    def test_chain_encoding_summary(self):
        encoding = encode(positive_chain_family(6))
        summary = summarize(encoding.dependencies + [encoding.d0])
        n = len(encoding.presentation.alphabet)
        assert summary.attribute_count == 2 * n + 2
        assert summary.max_antecedents == 5


class TestWideNegativeAlphabet:
    def test_six_letter_negative_family(self):
        """Direction (B) with a 6-letter alphabet (14 attributes)."""
        report = prove_direction_b(negative_family(4))
        assert report.report.ok
        assert report.encoding.attribute_count == 14


class TestChaseAtScale:
    def test_transitive_closure_of_grid(self):
        """Transitivity over a 24-node path: ~276 derived edges."""
        schema = Schema(["FROM", "TO"])
        nodes = [Const(f"n{i}") for i in range(24)]
        path = Instance(schema, [(nodes[i], nodes[i + 1]) for i in range(23)])
        from repro.dependencies.parser import parse_td

        transitivity = parse_td("R(x, y) & R(y, z) -> R(x, z)", schema)
        result = chase(
            path, [transitivity], budget=Budget.unlimited(), record_trace=False
        )
        assert result.status is ChaseStatus.TERMINATED
        assert len(result.instance) == 24 * 23 // 2  # all i < j pairs

    def test_semi_naive_matches_at_scale(self):
        schema = Schema(["FROM", "TO"])
        nodes = [Const(f"n{i}") for i in range(16)]
        path = Instance(schema, [(nodes[i], nodes[i + 1]) for i in range(15)])
        from repro.dependencies.parser import parse_td

        transitivity = parse_td("R(x, y) & R(y, z) -> R(x, z)", schema)
        standard = chase(
            path, [transitivity], budget=Budget.unlimited(), record_trace=False
        )
        semi = oracle.chase(
            path,
            [transitivity],
            variant=ChaseVariant.SEMI_NAIVE,
            budget=Budget.unlimited(),
            record_trace=False,
        )
        assert semi.instance.rows == standard.instance.rows

    def test_deep_implication(self):
        deps, target = transitivity_family(20)
        outcome = implies(
            deps, target, budget=Budget.unlimited(), record_trace=False
        )
        assert outcome.status is InferenceStatus.PROVED

"""Unit tests for the static dependency analyzer.

Covers the position-graph facts, fragment classification across the
hierarchy (full TGD / weakly acyclic / jointly acyclic / stratified
/ none), derived termination bounds, never-fires detection, and the
goal-directed pruning pass with its three drop reasons.
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    AnalysisReport,
    Fragment,
    analyze,
    existential_depth,
    position_facts,
    prune_for_target,
)
from repro.chase.budget import Budget
from repro.chase.implication import InferenceStatus, implies
from repro.dependencies.parser import parse_dependency, parse_td
from repro.reduction.encode import encode
from repro.workloads.generators import disguise, transitivity_family
from repro.workloads.instances import negative_instance, positive_instance


# ---------------------------------------------------------------------------
# Fragment classification


class TestFragments:
    def test_full_tgd_set_is_certified(self):
        transitivity = parse_td("R(x,y) & R(y,z) -> R(x,z)")
        report = analyze((transitivity,))
        assert report.fragment is Fragment.FULL
        assert report.certified
        assert report.certificate is not None
        assert report.certificate.rank == 0

    def test_weakly_acyclic_set_has_positive_rank(self):
        dep = parse_td("R(x,y) -> R(x,z)")
        report = analyze((dep,))
        assert report.fragment is Fragment.WEAKLY_ACYCLIC
        assert report.weakly_acyclic
        assert report.certificate is not None
        assert report.certificate.rank >= 1

    def test_successor_td_is_not_certified(self):
        successor = parse_td("R(x,y) -> R(y,z)")
        report = analyze((successor,))
        assert report.fragment is Fragment.NONE
        assert not report.certified
        assert report.certificate is None
        assert report.special_cycle is not None

    def test_weakly_acyclic_sets_are_jointly_acyclic(self):
        # JA strictly contains WA, so every WA verdict must come with a
        # finite existential depth.
        for text in ("R(x,y) -> R(x,z)", "R(x,y) & R(y,z) -> R(x,w)"):
            dep = parse_td(text)
            report = analyze((dep,))
            assert report.weakly_acyclic
            assert report.jointly_acyclic

    def test_stratified_set_is_certified(self):
        # The symmetric rule never fires on its own conclusions being
        # embedded; the existential rule alone is weakly acyclic, but the
        # pair has a special cycle through R.  Stratification on the
        # firing graph certifies the productive remainder.
        symmetry = parse_td("R(x,y) -> R(y,x)")
        trivial = parse_td("R(x,y) & R(y,z) -> R(x,w)")
        report = analyze((symmetry, trivial))
        assert report.fragment is Fragment.STRATIFIED
        assert report.certified

    def test_report_describe_renders(self):
        report = analyze((parse_td("R(x,y) -> R(x,z)"),))
        text = report.describe()
        assert "weakly-acyclic" in text
        assert isinstance(report, AnalysisReport)


class TestExistentialDepth:
    def test_successor_td_has_no_depth(self):
        assert existential_depth((parse_td("R(x,y) -> R(y,z)"),)) is None

    def test_weakly_acyclic_dep_has_depth(self):
        depth = existential_depth((parse_td("R(x,y) -> R(x,z)"),))
        assert depth is not None
        assert depth >= 1

    def test_full_set_has_zero_depth(self):
        assert existential_depth((parse_td("R(x,y) & R(y,z) -> R(x,z)"),)) == 0


# ---------------------------------------------------------------------------
# Position graph facts


class TestPositionGraph:
    def test_special_cycle_witness_for_successor(self):
        successor = parse_td("R(x,y) -> R(y,z)")
        cycle = position_facts((successor,)).special_cycle
        assert cycle is not None
        assert any(edge.special for edge in cycle)

    def test_ranks_bounded_for_acyclic_graph(self):
        facts = position_facts((parse_td("R(x,y) -> R(x,z)"),))
        assert facts.rank is not None
        assert facts.rank >= 1

    def test_full_set_ranks_are_zero(self):
        # No special edges at all: every position sits at rank 0.
        facts = position_facts((parse_td("R(x,y) & R(y,z) -> R(x,z)"),))
        assert facts.rank == 0


# ---------------------------------------------------------------------------
# GL encodings: the paper's reduction is provably never weakly acyclic,
# so the analyzer must refuse to certify it — asserted statically,
# without running a chase.


class TestGLEncodings:
    @pytest.mark.parametrize(
        "presentation", [positive_instance(), negative_instance()]
    )
    def test_encodings_never_certified(self, presentation):
        encoded = encode(presentation)
        report = analyze(tuple(encoded.dependencies))
        assert not report.certified
        assert report.certificate is None


# ---------------------------------------------------------------------------
# Never-fires and stratification


class TestFiring:
    def test_reflexive_projection_never_fires(self):
        dep = parse_td("R(x,y) -> R(x,x)")
        assert not dep.is_trivial()
        trivial = parse_td("R(x,y) & R(y,z) -> R(x,w)")
        assert trivial.is_trivial()

    def test_eid_conclusions_embed_under_one_substitution(self):
        # w -> y maps both conclusion atoms into the antecedents.
        joint = parse_dependency("R(x,y) & R(y,z) -> R(x,w) & R(w,z)")
        assert joint.is_trivial()
        # Each atom embeds alone (w -> y, then w -> u), never both at once.
        split = parse_dependency("R(x,y) & R(u,z) -> R(x,w) & R(w,z)")
        assert not split.is_trivial()
        assert all(td.is_trivial() for td in split.split())
        assert analyze((split, joint)).never_firing == (1,)

    def test_stratify_orders_never_firing_first(self):
        symmetry = parse_td("R(x,y) -> R(y,x)")
        trivial = parse_td("R(x,y) & R(y,z) -> R(x,w)")
        strata = analyze((symmetry, trivial)).strata
        assert len(strata) == 2
        # The never-firing dependency forms its own leading stratum.
        assert strata[0] == (1,)
        assert strata[1] == (0,)


# ---------------------------------------------------------------------------
# Termination certificates and derived budgets


class TestCertificateBounds:
    def test_full_set_bound_counts_rows(self):
        report = analyze((parse_td("R(x,y) & R(y,z) -> R(x,z)"),))
        assert report.certificate is not None
        bound = report.certificate.bounds(4, 3)
        assert bound is not None
        steps, rows = bound
        # Full sets add no values: at most domain**arity rows.
        assert steps == rows
        assert rows == 4**2 + 1

    def test_derived_budget_is_finite(self):
        report = analyze((parse_td("R(x,y) -> R(x,z)"),))
        assert report.certificate is not None
        budget = report.certificate.derived_budget(3, 2)
        assert isinstance(budget, Budget)
        assert budget.max_steps is not None
        assert budget.max_seconds is None

    def test_huge_rank_overflows_to_none(self):
        # Bound computation must refuse (not mis-certify) when the
        # closed-form blows past the bit guard.
        report = analyze((parse_td("R(x,y) -> R(x,z)"),))
        certificate = report.certificate
        assert certificate is not None
        from dataclasses import replace

        inflated = replace(certificate, rank=10_000, max_universals=64)
        assert inflated.bounds(10, 10) is None


# ---------------------------------------------------------------------------
# Goal-directed pruning


class TestPruning:
    def test_never_firing_dependency_is_dropped(self):
        transitivity = parse_td("R(x,y) & R(y,z) -> R(x,z)")
        trivial = parse_td("R(x,y) & R(y,z) -> R(x,w)")
        program = prune_for_target((transitivity, trivial))
        assert len(program.kept) == 1
        assert program.kept[0] == transitivity
        assert [d.reason for d in program.dropped] == ["never-fires"]

    def test_alpha_renamed_duplicate_is_dropped(self):
        transitivity = parse_td("R(x,y) & R(y,z) -> R(x,z)")
        duplicate = disguise(transitivity, seed=7)
        program = prune_for_target((transitivity, duplicate))
        assert len(program.kept) == 1
        assert any(d.reason == "duplicate" for d in program.dropped)

    def test_entailed_shortcut_is_dropped(self):
        transitivity = parse_td("R(x,y) & R(y,z) -> R(x,z)")
        shortcut = parse_td("R(x,y) & R(y,z) & R(z,u) -> R(x,u)")
        program = prune_for_target((transitivity, shortcut))
        assert len(program.kept) == 1
        assert any(d.reason == "entailed" for d in program.dropped)

    def test_pruned_program_preserves_verdicts(self):
        transitivity = parse_td("R(x,y) & R(y,z) -> R(x,z)")
        trivial = parse_td("R(x,y) & R(y,z) -> R(x,w)")
        target = transitivity_family(4)[-1]
        full = implies(
            [transitivity, trivial], target, budget=Budget.unlimited(),
            analysis="off",
        )
        pruned = implies([transitivity, trivial], target)
        assert full.status is InferenceStatus.PROVED
        assert pruned.status is full.status
        assert pruned.analysis is not None
        assert pruned.analysis["pruned"] == 1

    def test_provenance_shape(self):
        transitivity = parse_td("R(x,y) & R(y,z) -> R(x,z)")
        outcome = implies([transitivity], transitivity_family(3)[-1])
        provenance = outcome.analysis
        assert provenance is not None
        for key in (
            "fragment",
            "certified",
            "applied",
            "pruned",
            "kept",
            "strata",
            "dropped",
        ):
            assert key in provenance
        assert provenance["certified"] is True
        assert provenance["applied"] is True
        assert provenance["derived_max_steps"] is not None

    def test_analysis_off_leaves_no_provenance(self):
        transitivity = parse_td("R(x,y) & R(y,z) -> R(x,z)")
        outcome = implies(
            [transitivity], transitivity_family(3)[-1],
            budget=Budget.unlimited(), analysis="off",
        )
        assert outcome.analysis is None

"""Differential suite: analyzer certificates versus actual chases.

For randomly generated weakly-acyclic dependency sets the analyzer must
(1) certify them, (2) let :func:`implies` run them to fixpoint with no
client budget — on the production chase and on the reference chase of
``tests/oracle`` — without ever returning UNKNOWN, (3)
never be caught out by the actual chase exceeding the certified bound,
and (4) preserve verdicts under goal-directed pruning.  Known
non-terminating sets must never be certified.
"""

from __future__ import annotations

import pytest

from repro.analysis import analyze, prune_for_target
from repro.chase.budget import Budget
from repro.chase.implication import InferenceStatus, _freeze_target, implies
from repro.dependencies.parser import parse_td
from repro.workloads.generators import (
    disguise,
    transitivity_family,
    weakly_acyclic_dependencies,
)

from tests.oracle import chase as oracle

SEEDS = (0, 1, 2, 3, 4)
#: ``implies`` on the production chase and on the reference chase.
KERNELS = {"compiled": implies, "legacy": oracle.implies}


def _generated(seed: int, include_eids: bool):
    return weakly_acyclic_dependencies(
        count=2, arity=2 + (seed % 2), include_eids=include_eids, seed=seed
    )


class TestCertifiedSetsChaseToFixpoint:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("include_eids", [False, True])
    def test_generator_output_is_certified(self, seed, include_eids):
        dependencies = _generated(seed, include_eids)
        report = analyze(tuple(dependencies))
        assert report.certified, report.describe()

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_unbudgeted_implication_is_decisive(self, seed, kernel):
        dependencies = _generated(seed, include_eids=True)
        target = _generated(seed + 100, include_eids=False)[0]
        outcome = KERNELS[kernel](dependencies, target)
        assert outcome.status is not InferenceStatus.UNKNOWN
        reference = KERNELS[kernel](
            dependencies, target, budget=Budget.unlimited(), analysis="off",
        )
        assert outcome.status is reference.status
        provenance = outcome.analysis
        assert provenance is not None and provenance["applied"] is True

    @pytest.mark.parametrize("seed", SEEDS)
    def test_chase_steps_stay_under_certified_bound(self, seed):
        dependencies = _generated(seed, include_eids=True)
        target = _generated(seed + 100, include_eids=False)[0]
        certificate = analyze(tuple(dependencies)).certificate
        assert certificate is not None
        start, __ = _freeze_target(target)
        bound = certificate.bounds(len(start.active_domain()), len(start))
        assert bound is not None
        outcome = implies(dependencies, target)
        assert outcome.chase_result is not None
        assert outcome.chase_result.stats.steps < bound[0]
        assert outcome.chase_result.stats.rows_added < bound[1]

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_pruned_verdicts_match_full_verdicts(self, seed):
        base = _generated(seed, include_eids=False)
        # Pad with prunable noise: an alpha-renamed duplicate.
        noisy = list(base) + [disguise(base[0], seed=seed + 13)]
        target = _generated(seed + 100, include_eids=False)[0]
        pruned = implies(noisy, target)
        full = implies(
            noisy, target, budget=Budget.unlimited(), analysis="off"
        )
        assert pruned.status is full.status
        assert pruned.analysis is not None
        assert pruned.analysis["pruned"] >= 1


class TestStratifiedSets:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_stratified_set_decides_without_budget(self, kernel):
        symmetry = parse_td("R(x,y) -> R(y,x)")
        trivial = parse_td("R(x,y) & R(y,z) -> R(x,w)")
        target = parse_td("R(x,y) -> R(y,x)")
        outcome = KERNELS[kernel]([symmetry, trivial], target)
        assert outcome.status is InferenceStatus.PROVED
        disproved = KERNELS[kernel](
            [symmetry, trivial], transitivity_family(3)[-1]
        )
        assert disproved.status is InferenceStatus.DISPROVED


class TestNonTerminatingSetsNeverCertified:
    def test_successor_td(self):
        successor = parse_td("R(x,y) -> R(y,z)")
        assert not analyze((successor,)).certified

    def test_successor_stays_budgeted(self):
        successor = parse_td("R(x,y) -> R(y,z)")
        # The frozen transitivity start never produces R(a, c) with a as
        # the chain head, so this chase runs forever without the budget.
        target = parse_td("R(x,y) & R(y,z) -> R(x,z)")
        outcome = implies([successor], target, budget=Budget.small())
        assert outcome.status is InferenceStatus.UNKNOWN
        provenance = outcome.analysis
        assert provenance is not None
        assert provenance["certified"] is False
        assert provenance["applied"] is False

    def test_pruning_never_unlocks_certification_for_successor(self):
        successor = parse_td("R(x,y) -> R(y,z)")
        trivial = parse_td("R(x,y) & R(y,z) -> R(x,w)")
        program = prune_for_target((successor, trivial))
        assert program.certificate is None

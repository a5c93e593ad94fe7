"""The rule-level joint-acyclicity check against the pairwise reference.

:func:`repro.analysis.existential_depth` builds the Krötzsch–Rudolph
graph over distinct seeds and rules; :mod:`tests.oracle.analysis` keeps
the construction over every pair of existential variables. The two must
return the same value — ``None`` or the same depth — on a seeded corpus
of random TD/EID sets, on the paper's reductions and on their
productive subsets. The second half pins what :func:`analyze` reports
as independent of premise order and variable names, and checks that
:func:`prune_for_target` decides triviality once per dependency.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.analysis import analyze, existential_depth, prune_for_target
from repro.analysis import report as report_module
from repro.dependencies.eid import EmbeddedImplicationalDependency
from repro.dependencies.parser import parse_td
from repro.reduction.encode import encode
from repro.workloads.generators import disguise, random_eid, random_td
from repro.workloads.instances import negative_family, positive_chain_family

from tests.oracle.analysis import existential_depth as pairwise_depth

CORPUS_SIZE = 600

#: The paper's reductions: (family, k) as drawn by perfbench's gl_reduction.
GL_KINDS = (
    ("positive", 1),
    ("positive", 2),
    ("positive", 3),
    ("negative", 0),
    ("negative", 1),
    ("negative", 2),
    ("negative", 3),
)
SHUFFLES = 20


def _random_set(seed: int) -> tuple:
    """A seeded random TD/EID set; the existential probability varies by
    draw, so the corpus mixes full, jointly acyclic and cyclic sets."""
    rng = random.Random(f"joint-acyclicity-{seed}")
    arity = rng.choice((2, 3, 4))
    probability = rng.choice((0.1, 0.15, 0.2, 0.25, 0.35))
    dependencies = []
    for __ in range(rng.randint(2, 6)):
        shape = dict(
            arity=arity,
            antecedents=rng.randint(1, 3),
            variables_per_column=rng.randint(1, 2),
            existential_probability=probability,
            seed=rng.randrange(1 << 30),
        )
        if rng.random() < 0.4:
            dependencies.append(random_eid(conclusions=rng.randint(1, 2), **shape))
        else:
            dependencies.append(random_td(**shape))
    return tuple(dependencies)


def _gl_dependencies(family: str, k: int) -> tuple:
    families = {"positive": positive_chain_family, "negative": negative_family}
    return tuple(encode(families[family](k)).dependencies)


class TestDifferentialAgainstPairwiseGraph:
    def test_random_corpus_agrees(self):
        depths = Counter()
        for seed in range(CORPUS_SIZE):
            dependencies = _random_set(seed)
            depth = existential_depth(dependencies)
            assert depth == pairwise_depth(dependencies), seed
            depths[depth] += 1
        # The corpus must exercise every branch: cycles, full sets, and
        # jointly acyclic sets of depth 1 and deeper.
        assert depths[None] and depths[0] and depths[1] and depths[2]
        deep = sum(count for depth, count in depths.items() if depth)
        assert deep >= CORPUS_SIZE // 4, depths

    @pytest.mark.parametrize("family,k", GL_KINDS)
    def test_gl_encoding_agrees(self, family, k):
        dependencies = _gl_dependencies(family, k)
        assert existential_depth(dependencies) == pairwise_depth(dependencies)
        # The undecidability proof forces cyclic null creation.
        assert existential_depth(dependencies) is None

    @pytest.mark.parametrize("family,k", GL_KINDS)
    def test_gl_productive_subset_agrees(self, family, k):
        dependencies = _gl_dependencies(family, k)
        never = set(analyze(dependencies).never_firing)
        assert never
        productive = tuple(
            dependency
            for index, dependency in enumerate(dependencies)
            if index not in never
        )
        assert existential_depth(productive) == pairwise_depth(productive)


def _invariants(report) -> tuple:
    return (
        report.fragment,
        report.certificate,
        report.weakly_acyclic,
        report.jointly_acyclic,
        report.position_count,
        report.regular_edge_count,
        report.special_edge_count,
        len(report.never_firing),
        sorted(len(stratum) for stratum in report.strata),
    )


class TestAnalysisIsOrderAndRenamingInvariant:
    @pytest.mark.parametrize("family,k", GL_KINDS)
    def test_shuffled_disguised_premises_analyze_alike(self, family, k):
        dependencies = _gl_dependencies(family, k)
        expected = _invariants(analyze(dependencies))
        for shuffle in range(SHUFFLES):
            rng = random.Random(f"analysis-order-{family}-{k}-{shuffle}")
            premises = list(dependencies)
            rng.shuffle(premises)
            variant = tuple(
                disguise(dependency, seed=rng.randrange(1 << 30), tag="p")
                for dependency in premises
            )
            assert _invariants(analyze(variant)) == expected, shuffle


class TestNeverFiresOncePerPrune:
    def test_each_dependency_is_tested_once(self, monkeypatch):
        # STRATIFIED (the productive subset is full) with a duplicate:
        # the full set, its productive subset and the kept set are all
        # analyzed, and none of them may test a dependency again.
        symmetry = parse_td("R(x,y) -> R(y,x)")
        trivial = parse_td("R(x,y) & R(y,z) -> R(x,w)")
        premises = (symmetry, trivial, disguise(symmetry, seed=7, tag="once"))
        calls = []
        # The one body: a TD's is_trivial decides through it.
        tested = EmbeddedImplicationalDependency.is_trivial

        def counting(dependency):
            calls.append(dependency)
            return tested(dependency)

        monkeypatch.setattr(EmbeddedImplicationalDependency, "is_trivial", counting)
        monkeypatch.setattr(report_module, "_ANALYSIS_CACHE", {})
        monkeypatch.setattr(report_module, "_PRUNE_CACHE", {})
        program = prune_for_target(premises)
        assert program.report.fragment.value == "stratified"
        assert [entry.reason for entry in program.dropped] == [
            "never-fires",
            "duplicate",
        ]
        assert program.kept == (symmetry,)
        assert len(calls) == len(premises)
        assert sorted(map(str, calls)) == sorted(map(str, premises))

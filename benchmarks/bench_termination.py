"""E3-companion — termination analysis of the encoded dependency sets.

Weak acyclicity is the standard syntactic guarantee of chase termination.
The Gurevich-Lewis encodings can never have it: a weakly acyclic encoding
would let the chase decide ``D |= D0`` and hence the word problem,
contradicting the Main Theorem. This harness measures the analysis
(:func:`repro.analysis.positions.position_facts`) and records that every
encoding is (necessarily) outside the guarantee, while the full-TD
workloads are inside it.
"""

import pytest

from repro.analysis import position_facts
from repro.dependencies.parser import parse_td
from repro.reduction.encode import encode
from repro.workloads.generators import transitivity_family
from repro.workloads.instances import negative_family, positive_instance

from conftest import record

EXPERIMENT = "E3b / weak acyclicity: encodings are (necessarily) outside the guarantee"


@pytest.mark.parametrize("extra", [0, 2, 4])
def test_encodings_never_weakly_acyclic(benchmark, extra):
    encoding = encode(negative_family(extra))

    def analyse():
        return position_facts(encoding.dependencies)

    report = benchmark(analyse)
    assert not report.weakly_acyclic
    record(
        EXPERIMENT,
        f"encoding (n={len(encoding.presentation.alphabet)} letters, "
        f"{encoding.dependency_count} dependencies): NOT weakly acyclic "
        f"({report.special_edge_count} special edges) — as the Main "
        "Theorem requires",
    )


def test_positive_encoding_also_outside(benchmark):
    encoding = encode(positive_instance())
    report = benchmark(position_facts, encoding.dependencies)
    assert not report.weakly_acyclic
    record(
        EXPERIMENT,
        "positive encoding: NOT weakly acyclic either (divergence risk is "
        "intrinsic; the guided proof sidesteps it)",
    )


def test_full_td_workloads_inside(benchmark):
    deps, __ = transitivity_family(8)
    report = benchmark(position_facts, deps)
    assert report.weakly_acyclic
    record(
        EXPERIMENT,
        "control (full TDs, transitivity family): weakly acyclic — chase "
        "termination guaranteed",
    )


def test_single_embedded_td(benchmark):
    successor = parse_td("R(x, y) -> R(y, s)")
    report = benchmark(position_facts, [successor])
    assert not report.weakly_acyclic
    record(
        EXPERIMENT,
        "control (successor TD): NOT weakly acyclic — matches its "
        "observed chase divergence (E8)",
    )

"""E9 — chase substrate scaling (supports E4-E6).

Measures the chase on the transitivity family (full TDs, growing goal
distance) and compares the standard (restricted) chase against the
oblivious variant — the ablation DESIGN.md calls out: firing satisfied
triggers buys nothing and costs rows. The oblivious and semi-naive
disciplines are those of the reference chase kept in ``tests/oracle``.
"""

import pytest

from repro.chase.budget import Budget
from repro.chase.engine import chase
from repro.chase.implication import InferenceStatus, implies
from repro.chase.result import ChaseStatus
from repro.workloads.generators import transitivity_family

from conftest import record
from tests.oracle import chase as oracle
from tests.oracle.chase import ChaseVariant

EXPERIMENT = "E9 / chase scaling and the standard-vs-oblivious ablation"

PATH_LENGTHS = [2, 4, 8, 16]


@pytest.mark.parametrize("length", PATH_LENGTHS)
def test_implication_scaling(benchmark, length):
    deps, target = transitivity_family(length)

    def run():
        return implies(deps, target, budget=Budget.unlimited(), record_trace=False)

    outcome = benchmark(run)
    assert outcome.status is InferenceStatus.PROVED
    record(
        EXPERIMENT,
        f"path length k={length:>2}: transitivity |- k-step closure PROVED, "
        f"{outcome.chase_result.step_count:>4} chase steps",
    )


@pytest.mark.parametrize("length", [8, 16])
def test_semi_naive_ablation(benchmark, length):
    """Delta-driven trigger enumeration vs naive rescanning."""
    deps, target = transitivity_family(length)
    start, __ = target.freeze()

    def run_semi_naive():
        return oracle.chase(
            start,
            deps,
            variant=ChaseVariant.SEMI_NAIVE,
            budget=Budget.unlimited(),
            record_trace=False,
        )

    naive = oracle.chase(start, deps, budget=Budget.unlimited(), record_trace=False)
    semi = benchmark(run_semi_naive)
    assert semi.status is ChaseStatus.TERMINATED
    assert semi.instance.rows == naive.instance.rows
    record(
        EXPERIMENT,
        f"k={length:>2}: semi-naive chase reaches the same fixpoint "
        f"({len(semi.instance)} rows) with delta-driven enumeration "
        f"({semi.step_count} firings, identical to standard)",
    )


@pytest.mark.parametrize("length", [4, 8])
def test_standard_vs_oblivious(benchmark, length):
    deps, target = transitivity_family(length)
    start, __ = target.freeze()

    def run_standard():
        return chase(start, deps, budget=Budget.unlimited(), record_trace=False)

    standard = run_standard()
    oblivious = oracle.chase(
        start,
        deps,
        variant=ChaseVariant.OBLIVIOUS,
        budget=Budget(max_steps=20_000, max_rows=None, max_seconds=120),
        record_trace=False,
    )
    benchmark(run_standard)
    assert standard.status is ChaseStatus.TERMINATED
    record(
        EXPERIMENT,
        f"k={length:>2}: standard chase {standard.step_count:>4} steps / "
        f"{len(standard.instance):>4} rows  vs  oblivious "
        f"{oblivious.step_count:>5} steps / {len(oblivious.instance):>4} rows "
        f"({oblivious.status.value})",
    )

"""E15 — compiled core/CQ engine vs the legacy generic search.

PR 3/4 compiled the chase and model checking; cores and conjunctive
queries were the last consumers of the generic backtracking search —
and cores are the differential suites' own runtime sink (every
"equal up to null renaming" comparison computes two cores). This
experiment times the compiled homomorphism engine
(:mod:`repro.relational.homplan`) against the legacy engine (the
generic search kept in ``tests/oracle``) on the two remaining
hom-shaped workloads:

* **core mix** — redundancy-heavy instances produced by the reference
  OBLIVIOUS chase (which fires every trigger once, active or not, so its results
  drip with foldable nulls) plus terminated restricted chases of
  weakly acyclic embedded sets; each is ``core_of``-ed and
  cross-checked with ``homomorphically_equivalent`` — the shape of the
  differential suites and of universal-model canonicalization;
* **CQ mix** — random conjunctive queries padded with foldable atoms:
  ``minimized()`` (iterated retraction fixing the head) plus pairwise
  Chandra–Merlin containment over the batch.

Both engines must agree before any timing is trusted: equal core
sizes, homomorphically equivalent cores, identical containment verdict
matrices, equal minimized body sizes. Full runs assert the acceptance
bar (compiled >= 2x legacy on the combined mix); ``--quick`` CI runs
assert the coarse >= 1x guard and write the untracked
``BENCH_core.quick.json`` so smoke runs never clobber the committed
``BENCH_core.json`` baseline.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

import pytest

from types import SimpleNamespace

from repro.chase.budget import Budget
from repro.chase.engine import chase
from repro.chase.result import ChaseStatus
from repro.relational import core
from repro.relational.queries import ConjunctiveQuery
from repro.workloads.generators import (
    random_cq,
    random_instance,
    weakly_acyclic_dependencies,
)

from conftest import record
from tests.oracle import chase as oracle_chase
from tests.oracle import homomorphism as oracle

EXPERIMENT = "E15 / compiled core + CQ engine vs legacy generic search"

BUDGET = Budget(max_steps=4_000)

#: The core and CQ operations per engine, under the same names.
ENGINE_OPS = {
    "legacy": SimpleNamespace(
        core_of=oracle.core_of,
        homomorphically_equivalent=oracle.homomorphically_equivalent,
        minimized=oracle.cq_minimized,
        is_equivalent_to=oracle.cq_equivalent,
        is_contained_in=oracle.cq_contained_in,
    ),
    "compiled": SimpleNamespace(
        core_of=core.core_of,
        homomorphically_equivalent=core.homomorphically_equivalent,
        minimized=ConjunctiveQuery.minimized,
        is_equivalent_to=ConjunctiveQuery.is_equivalent_to,
        is_contained_in=ConjunctiveQuery.is_contained_in,
    ),
}
ENGINES = tuple(ENGINE_OPS)

_REPO_ROOT = Path(__file__).resolve().parent.parent

RESULT_PATH = _REPO_ROOT / "BENCH_core.json"
QUICK_RESULT_PATH = _REPO_ROOT / "BENCH_core.quick.json"


@pytest.fixture(scope="module")
def quick(request):
    return request.config.getoption("--quick")


@pytest.fixture(scope="module")
def core_cases(quick):
    """Redundancy-heavy instances worth coring."""
    seeds = range(4) if quick else range(12)
    cases = []
    for seed in seeds:
        dependencies = weakly_acyclic_dependencies(
            count=2, include_eids=True, seed=seed
        )
        start = random_instance(seed=seed, rows=5 if quick else 7)
        # The OBLIVIOUS chase fires every trigger once, active or not:
        # maximal redundancy, the hard case for core computation.
        oblivious = oracle_chase.chase(
            start,
            dependencies,
            variant=oracle_chase.ChaseVariant.OBLIVIOUS,
            budget=Budget(max_steps=60 if quick else 120),
            record_trace=False,
        ).instance
        restricted = chase(
            start, dependencies, budget=BUDGET, record_trace=False
        )
        assert restricted.status is ChaseStatus.TERMINATED
        cases.append((oblivious, restricted.instance))
    return cases


@pytest.fixture(scope="module")
def cq_cases(quick):
    """Foldable conjunctive queries plus containment probe pairs."""
    count = 6 if quick else 18
    return [
        random_cq(
            seed=seed,
            body_atoms=3,
            redundant_atoms=3 if quick else 5,
            head_size=1,
        )
        for seed in range(count)
    ]


def _time_core_mix(cases, engine, repeats):
    ops = ENGINE_OPS[engine]
    best = None
    summary = None
    for __ in range(repeats):
        sizes = []
        started = time.perf_counter()
        for oblivious, restricted in cases:
            oblivious_core = ops.core_of(oblivious)
            restricted_core = ops.core_of(restricted)
            sizes.append((len(oblivious_core), len(restricted_core)))
            # The two chase variants must agree up to null renaming —
            # the differential suites' own comparison, timed here.
            sizes.append(
                ops.homomorphically_equivalent(oblivious_core, restricted_core)
            )
        elapsed = time.perf_counter() - started
        best = elapsed if best is None or elapsed < best else best
        summary = sizes
    return best, summary


def _time_cq_mix(queries, engine, repeats):
    ops = ENGINE_OPS[engine]
    best = None
    summary = None
    for __ in range(repeats):
        verdicts = []
        started = time.perf_counter()
        for query in queries:
            minimized = ops.minimized(query)
            verdicts.append(len(minimized.body))
            verdicts.append(ops.is_equivalent_to(query, minimized))
        for left in queries:
            for right in queries:
                verdicts.append(ops.is_contained_in(left, right))
        elapsed = time.perf_counter() - started
        best = elapsed if best is None or elapsed < best else best
        summary = verdicts
    return best, summary


def test_core_cq_speedup(core_cases, cq_cases, quick):
    repeats = 2 if quick else 5

    # Warm both engines (plan caches, interpreter warmup) off the clock.
    for engine in ENGINES:
        _time_core_mix(core_cases[:2], engine, 1)
        _time_cq_mix(cq_cases[:2], engine, 1)

    core_times: dict[str, float] = {}
    core_summaries = {}
    for engine in ENGINES:
        seconds, summary = _time_core_mix(core_cases, engine, repeats)
        core_times[engine] = seconds
        core_summaries[engine] = summary
        record(
            EXPERIMENT,
            f"core mix            {engine:<9} {seconds * 1000:>9.1f} ms "
            f"({len(core_cases)} oblivious+restricted pairs cored)",
        )

    cq_times: dict[str, float] = {}
    cq_summaries = {}
    for engine in ENGINES:
        seconds, summary = _time_cq_mix(cq_cases, engine, repeats)
        cq_times[engine] = seconds
        cq_summaries[engine] = summary
        record(
            EXPERIMENT,
            f"CQ minimize+contain {engine:<9} {seconds * 1000:>9.1f} ms "
            f"({len(cq_cases)} queries, {len(cq_cases) ** 2} containments)",
        )

    # Correctness before timing: identical core sizes and equivalence
    # verdicts, identical minimized sizes and containment matrices.
    assert core_summaries["compiled"] == core_summaries["legacy"], (
        "compiled engine changed core computation results"
    )
    assert cq_summaries["compiled"] == cq_summaries["legacy"], (
        "compiled engine changed CQ verdicts"
    )

    core_speedup = core_times["legacy"] / core_times["compiled"]
    cq_speedup = cq_times["legacy"] / cq_times["compiled"]
    total_legacy = core_times["legacy"] + cq_times["legacy"]
    total_compiled = core_times["compiled"] + cq_times["compiled"]
    total_speedup = total_legacy / total_compiled
    record(
        EXPERIMENT,
        f"speedup: {core_speedup:.2f}x cores, {cq_speedup:.2f}x CQs, "
        f"{total_speedup:.2f}x combined",
    )

    payload = {
        "experiment": "E15",
        "description": (
            "compiled homomorphism engine (cores, homomorphic "
            "equivalence, CQ evaluation/containment/minimization on the "
            "shared join kernel) vs the legacy generic search"
        ),
        "quick": quick,
        "workload": {
            "core_pairs": len(core_cases),
            "cq_queries": len(cq_cases),
            "cq_containment_pairs": len(cq_cases) ** 2,
            "budget_max_steps": BUDGET.max_steps,
        },
        "repeats_best_of": repeats,
        "platform": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
        },
        "core_mix_ms": {
            engine: round(seconds * 1000, 3)
            for engine, seconds in core_times.items()
        },
        "cq_mix_ms": {
            engine: round(seconds * 1000, 3)
            for engine, seconds in cq_times.items()
        },
        "speedup_cores": round(core_speedup, 3),
        "speedup_cqs": round(cq_speedup, 3),
        "speedup_combined": round(total_speedup, 3),
    }
    result_path = QUICK_RESULT_PATH if quick else RESULT_PATH
    result_path.write_text(json.dumps(payload, indent=2) + "\n")
    record(EXPERIMENT, f"wrote {result_path.name}")

    if quick:
        # Coarse CI guard: compiled must never be slower than the search
        # it replaced. (Tight thresholds on smoke-sized workloads flake
        # on shared runners without any code defect.)
        assert total_speedup >= 1.0, (
            f"compiled engine slower than legacy on the smoke mix "
            f"({total_speedup:.2f}x)"
        )
    else:
        # The acceptance bar on the full-size workload.
        assert total_speedup >= 2.0, (
            f"compiled core/CQ speedup {total_speedup:.2f}x < 2x"
        )

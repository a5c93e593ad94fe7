"""E13 — the compiled chase kernel vs the legacy engine.

Runs the E11 inference workload mix (transitivity premises, provable
path closures and refutable random full TDs, a third disguised
duplicates) through every ``chase()`` both ways. The legacy side is the
round-based reference chase kept in ``tests/oracle``:

* **chase kernel time** — the engine calls themselves, on pre-frozen
  starts with the real implication goal: legacy STANDARD (the old
  default), legacy SEMI_NAIVE, and the compiled kernel;
* **end-to-end ``implies``** — the same comparison including freezing
  and outcome construction, i.e. what the batch service actually pays.

Every configuration must produce identical statuses — a speedup that
changes verdicts is a bug, not an optimization. The headline criterion
(compiled >= 3x legacy on the full workload; a coarse >= 1x guard on
``--quick`` CI runs so a regression that makes the compiled kernel
*slower* fails loudly without flaking on machine noise) is asserted
here, and the measurements are written to ``BENCH_chase_kernel.json``
at the repository root so the perf trajectory is machine-readable
across PRs.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

import pytest

from repro.chase.budget import Budget
from repro.chase.engine import chase
from repro.chase.implication import ConclusionGoal, _freeze_target, implies
from repro.workloads.generators import inference_workload

from conftest import record
from tests.oracle import chase as oracle
from tests.oracle.chase import ChaseVariant

EXPERIMENT = "E13 / compiled chase kernel vs legacy engine (E11 workload mix)"

BUDGET = Budget(max_steps=5_000)

#: (label, kernel, variant) for the chase-kernel-time comparison; the
#: compiled kernel has no variant.
CONFIGURATIONS = (
    ("legacy/standard", "legacy", ChaseVariant.STANDARD),
    ("legacy/semi_naive", "legacy", ChaseVariant.SEMI_NAIVE),
    ("compiled", "compiled", None),
)

#: ``implies`` per kernel: the production path and the reference chase.
IMPLIES = {"legacy": oracle.implies, "compiled": implies}


def _chase(kernel, variant, start, dependencies, goal):
    if kernel == "legacy":
        return oracle.chase(
            start, dependencies, budget=BUDGET, goal=goal, variant=variant
        )
    return chase(start, dependencies, budget=BUDGET, goal=goal)

_REPO_ROOT = Path(__file__).resolve().parent.parent

#: Full runs maintain the committed perf-trajectory baseline; --quick
#: smoke runs (CI, local sanity checks) write a sibling file so they
#: never clobber the tracked full-workload numbers.
RESULT_PATH = _REPO_ROOT / "BENCH_chase_kernel.json"
QUICK_RESULT_PATH = _REPO_ROOT / "BENCH_chase_kernel.quick.json"


@pytest.fixture(scope="module")
def quick(request):
    return request.config.getoption("--quick")


@pytest.fixture(scope="module")
def workload(quick):
    queries = 24 if quick else 120
    return inference_workload(queries=queries, duplicate_fraction=0.35, seed=42)


def _prepare(targets):
    """Freeze every target once; timing then covers only the chase calls."""
    return [
        (start, ConclusionGoal(target, frozen))
        for target in targets
        for start, frozen in [_freeze_target(target)]
    ]


def _time_chases(dependencies, targets, kernel, variant, repeats):
    """Best-of-``repeats`` wall time for the whole mix; returns (s, statuses)."""
    best = None
    statuses = None
    for __ in range(repeats):
        prepared = _prepare(targets)  # fresh instances/goals per repeat
        started = time.perf_counter()
        statuses = [
            _chase(kernel, variant, start, dependencies, goal).status
            for start, goal in prepared
        ]
        elapsed = time.perf_counter() - started
        best = elapsed if best is None or elapsed < best else best
    return best, statuses


def _time_implies(dependencies, targets, kernel, repeats):
    best = None
    statuses = None
    for __ in range(repeats):
        started = time.perf_counter()
        statuses = [
            IMPLIES[kernel](dependencies, target, budget=BUDGET).status
            for target in targets
        ]
        elapsed = time.perf_counter() - started
        best = elapsed if best is None or elapsed < best else best
    return best, statuses


def test_chase_kernel_speedup(workload, quick):
    dependencies, targets = workload
    repeats = 2 if quick else 5

    # Warm both kernels (plan caches, interpreter warmup) off the clock.
    for kernel in ("legacy", "compiled"):
        _time_chases(dependencies, targets[:4], kernel, ChaseVariant.STANDARD, 1)

    kernel_times: dict[str, float] = {}
    kernel_statuses = {}
    for label, kernel, variant in CONFIGURATIONS:
        seconds, statuses = _time_chases(
            dependencies, targets, kernel, variant, repeats
        )
        kernel_times[label] = seconds
        kernel_statuses[label] = statuses
        record(
            EXPERIMENT,
            f"chase kernel  {label:<18} {seconds * 1000:>9.1f} ms "
            f"({len(targets)} queries)",
        )

    implies_times: dict[str, float] = {}
    implies_statuses = {}
    for kernel in ("legacy", "compiled"):
        seconds, statuses = _time_implies(dependencies, targets, kernel, repeats)
        implies_times[kernel] = seconds
        implies_statuses[kernel] = statuses
        record(
            EXPERIMENT,
            f"implies e2e   {kernel:<18} {seconds * 1000:>9.1f} ms",
        )

    # Correctness first: every configuration agrees status for status
    # (chase statuses among chase runs, verdicts among implies runs).
    reference = kernel_statuses["legacy/standard"]
    for label, statuses in kernel_statuses.items():
        assert statuses == reference, f"{label} changed chase statuses"
    verdict_reference = implies_statuses["legacy"]
    assert implies_statuses["compiled"] == verdict_reference, "verdicts changed"

    speedup = kernel_times["legacy/standard"] / kernel_times["compiled"]
    speedup_semi = kernel_times["legacy/semi_naive"] / kernel_times["compiled"]
    speedup_implies = implies_times["legacy"] / implies_times["compiled"]
    record(
        EXPERIMENT,
        f"speedup: {speedup:.2f}x vs legacy/standard, "
        f"{speedup_semi:.2f}x vs legacy/semi_naive, "
        f"{speedup_implies:.2f}x end-to-end",
    )

    payload = {
        "experiment": "E13",
        "description": "compiled chase kernel vs legacy engine on the E11 inference workload mix",
        "quick": quick,
        "workload": {
            "queries": len(targets),
            "duplicate_fraction": 0.35,
            "seed": 42,
            "budget_max_steps": BUDGET.max_steps,
        },
        "repeats_best_of": repeats,
        "platform": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
        },
        "chase_kernel_ms": {
            label: round(seconds * 1000, 3)
            for label, seconds in kernel_times.items()
        },
        "implies_ms": {
            label: round(seconds * 1000, 3)
            for label, seconds in implies_times.items()
        },
        "speedup_vs_legacy_standard": round(speedup, 3),
        "speedup_vs_legacy_semi_naive": round(speedup_semi, 3),
        "speedup_implies_end_to_end": round(speedup_implies, 3),
        "verdicts": {
            "proved": sum(1 for s in verdict_reference if s.value == "proved"),
            "disproved": sum(
                1 for s in verdict_reference if s.value == "disproved"
            ),
            "unknown": sum(1 for s in verdict_reference if s.value == "unknown"),
        },
    }
    result_path = QUICK_RESULT_PATH if quick else RESULT_PATH
    result_path.write_text(json.dumps(payload, indent=2) + "\n")
    record(EXPERIMENT, f"wrote {result_path.name}")

    if quick:
        # Coarse CI guard: the compiled kernel must never be slower than
        # the engine it replaced. (Not a 3x assertion: the smoke-sized
        # workload on a noisy shared runner would flake at tight
        # thresholds without any code defect.)
        assert speedup >= 1.0, (
            f"compiled kernel slower than legacy on the smoke workload "
            f"({speedup:.2f}x)"
        )
    else:
        # The tentpole acceptance bar, on the full-size mix.
        assert speedup >= 3.0, f"compiled kernel speedup {speedup:.2f}x < 3x"

"""E14 — compiled model checking vs the legacy generic search.

PR 3's kernel (E13) made PROVED verdicts fast; model checking is what
DISPROVED verdicts pay: verifying a chased counterexample re-checks the
whole dependency set against it, and direction (B) of the reduction
checks one database against every ``Di(r)``. This experiment times both
checkers on two workloads:

* **counterexample-heavy mix** — every DISPROVED target of the E11
  inference workload yields a chased counterexample database; each is
  model-checked (through one shared
  :class:`~repro.chase.checkplan.ModelChecker` per database) against
  the premise set, its own target's violation, and a fixed panel of
  other targets — the database-vs-many-dependencies shape of
  counterexample verification and direction (B);
* **finite-models search** — the deterministic exhaustive search from
  E8 (`every node has a successor` vs `every node has a predecessor`),
  which model-checks thousands of tiny candidate instances, plus the
  randomized fold search (recorded, not asserted: its trajectory
  depends on which witness ``find_violation`` surfaces first, so the
  two checkers legitimately walk different paths).

The legacy checker is the generic search kept in ``tests/oracle``.
Both checkers must agree verdict for verdict before any timing is
trusted. Full runs assert the acceptance bar (compiled >= 2x legacy on
the mix, >= 1x on the exhaustive search); ``--quick`` CI runs assert
the coarse >= 1x guard on the mix only and write the untracked
``BENCH_modelcheck.quick.json`` so smoke runs never clobber the
committed ``BENCH_modelcheck.json`` baseline.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

import pytest

from repro.chase.budget import Budget
from repro.chase.checkplan import ModelChecker
from repro.chase.finite_models import search_exhaustive, search_random
from repro.chase.implication import implies
from repro.dependencies.parser import parse_td
from repro.relational.schema import Schema
from repro.workloads.generators import inference_workload

from conftest import record
from tests.oracle import modelcheck as oracle

EXPERIMENT = "E14 / compiled model checking vs legacy generic search"

BUDGET = Budget(max_steps=5_000)

CHECKERS = ("legacy", "compiled")

#: The model checker class per checker.
MODEL_CHECKERS = {"legacy": oracle.ModelChecker, "compiled": ModelChecker}

#: How many other targets every counterexample is checked against (the
#: direction-(B) "one database vs many dependencies" shape).
PANEL_SIZE = 8

_REPO_ROOT = Path(__file__).resolve().parent.parent

RESULT_PATH = _REPO_ROOT / "BENCH_modelcheck.json"
QUICK_RESULT_PATH = _REPO_ROOT / "BENCH_modelcheck.quick.json"


@pytest.fixture(scope="module")
def quick(request):
    return request.config.getoption("--quick")


@pytest.fixture(scope="module")
def mix(quick):
    """(premises, [(counterexample, its target), ...], panel targets)."""
    queries = 24 if quick else 96
    dependencies, targets = inference_workload(
        queries=queries, duplicate_fraction=0.35, seed=42
    )
    cases = []
    for target in targets:
        outcome = implies(dependencies, target, budget=BUDGET)
        if outcome.disproved:
            cases.append((outcome.counterexample, target))
    assert cases, "the E11 mix must produce DISPROVED verdicts"
    panel = [target for __, target in cases[:PANEL_SIZE]]
    return dependencies, cases, panel


def _time_mix(dependencies, cases, panel, checker, repeats):
    """Best-of-``repeats`` wall time for the whole sweep; (s, verdicts)."""
    best = None
    verdicts = None
    for __ in range(repeats):
        run_verdicts = []
        started = time.perf_counter()
        for instance, target in cases:
            model = MODEL_CHECKERS[checker](instance)
            run_verdicts.append(model.satisfies_all(dependencies))
            run_verdicts.append(model.find_violation(target) is not None)
            for probe in panel:
                run_verdicts.append(model.holds_in(probe))
        elapsed = time.perf_counter() - started
        best = elapsed if best is None or elapsed < best else best
        verdicts = run_verdicts
    return best, verdicts


def _finite_workload():
    schema = Schema(["FROM", "TO"])
    successor = parse_td("R(x, y) -> R(y, s)", schema)
    predecessor = parse_td("R(x, y) -> R(p, x)", schema)
    return [successor], predecessor


def _time_exhaustive(checker, repeats):
    dependencies, target = _finite_workload()
    best = None
    witness = None
    for __ in range(repeats):
        with oracle.finite_searches(checker == "legacy"):
            started = time.perf_counter()
            witness = search_exhaustive(dependencies, target, domain_size=3)
            elapsed = time.perf_counter() - started
        best = elapsed if best is None or elapsed < best else best
    return best, witness


def _time_random_search(checker, repeats):
    dependencies, target = _finite_workload()
    best = None
    witness = None
    for __ in range(repeats):
        with oracle.finite_searches(checker == "legacy"):
            started = time.perf_counter()
            witness = search_random(dependencies, target, seed=0)
            elapsed = time.perf_counter() - started
        best = elapsed if best is None or elapsed < best else best
    return best, witness


def test_modelcheck_speedup(mix, quick):
    dependencies, cases, panel = mix
    repeats = 2 if quick else 5

    # Warm both checkers (plan caches, interpreter warmup) off the clock.
    for checker in CHECKERS:
        _time_mix(dependencies, cases[:4], panel, checker, 1)

    mix_times: dict[str, float] = {}
    mix_verdicts = {}
    for checker in CHECKERS:
        seconds, verdicts = _time_mix(
            dependencies, cases, panel, checker, repeats
        )
        mix_times[checker] = seconds
        mix_verdicts[checker] = verdicts
        record(
            EXPERIMENT,
            f"counterexample mix  {checker:<9} {seconds * 1000:>9.1f} ms "
            f"({len(cases)} databases x {2 + len(panel)} checks)",
        )

    exhaustive_times: dict[str, float] = {}
    exhaustive_witnesses = {}
    for checker in CHECKERS:
        seconds, witness = _time_exhaustive(checker, repeats)
        exhaustive_times[checker] = seconds
        exhaustive_witnesses[checker] = witness
        size = len(witness) if witness is not None else "none"
        record(
            EXPERIMENT,
            f"exhaustive search   {checker:<9} {seconds * 1000:>9.1f} ms "
            f"(witness rows: {size})",
        )

    random_times: dict[str, float] = {}
    for checker in CHECKERS:
        seconds, witness = _time_random_search(checker, repeats)
        random_times[checker] = seconds
        # Trajectories differ between checkers (the rng consumes whatever
        # witness find_violation surfaces first), so assert validity of
        # each checker's own result, not equality.
        assert witness is not None, checker
        verifier = ModelChecker(witness)
        assert verifier.satisfies_all(_finite_workload()[0]), checker
        assert verifier.find_violation(_finite_workload()[1]) is not None
        record(
            EXPERIMENT,
            f"random fold search  {checker:<9} {seconds * 1000:>9.1f} ms "
            f"({len(witness)}-row witness; trajectory checker-dependent)",
        )

    # Correctness before timing: verdict-for-verdict agreement on the
    # mix, identical minimum witness from the deterministic search.
    assert mix_verdicts["compiled"] == mix_verdicts["legacy"], (
        "compiled checker changed model-checking verdicts"
    )
    assert exhaustive_witnesses["legacy"] is not None
    assert (
        exhaustive_witnesses["legacy"].rows
        == exhaustive_witnesses["compiled"].rows
    ), "exhaustive search returned different witnesses"

    mix_speedup = mix_times["legacy"] / mix_times["compiled"]
    exhaustive_speedup = (
        exhaustive_times["legacy"] / exhaustive_times["compiled"]
    )
    random_speedup = random_times["legacy"] / random_times["compiled"]
    record(
        EXPERIMENT,
        f"speedup: {mix_speedup:.2f}x mix, {exhaustive_speedup:.2f}x "
        f"exhaustive, {random_speedup:.2f}x random fold",
    )

    payload = {
        "experiment": "E14",
        "description": (
            "compiled model checking (holds_in/find_violation on join "
            "plans) vs the legacy generic homomorphism search"
        ),
        "quick": quick,
        "workload": {
            "mix_queries": 24 if quick else 96,
            "mix_databases": len(cases),
            "panel_size": len(panel),
            "duplicate_fraction": 0.35,
            "seed": 42,
            "budget_max_steps": BUDGET.max_steps,
            "exhaustive_domain_size": 3,
        },
        "repeats_best_of": repeats,
        "platform": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
        },
        "mix_ms": {
            checker: round(seconds * 1000, 3)
            for checker, seconds in mix_times.items()
        },
        "exhaustive_ms": {
            checker: round(seconds * 1000, 3)
            for checker, seconds in exhaustive_times.items()
        },
        "random_fold_ms": {
            checker: round(seconds * 1000, 3)
            for checker, seconds in random_times.items()
        },
        "speedup_mix": round(mix_speedup, 3),
        "speedup_exhaustive": round(exhaustive_speedup, 3),
        "speedup_random_fold": round(random_speedup, 3),
    }
    result_path = QUICK_RESULT_PATH if quick else RESULT_PATH
    result_path.write_text(json.dumps(payload, indent=2) + "\n")
    record(EXPERIMENT, f"wrote {result_path.name}")

    if quick:
        # Coarse CI guard: compiled must never be slower than the search
        # it replaced. (Tight thresholds on smoke-sized workloads flake
        # on shared runners without any code defect.)
        assert mix_speedup >= 1.0, (
            f"compiled checker slower than legacy on the smoke mix "
            f"({mix_speedup:.2f}x)"
        )
    else:
        # The acceptance bar on the full-size workloads.
        assert mix_speedup >= 2.0, (
            f"compiled model checking speedup {mix_speedup:.2f}x < 2x"
        )
        assert exhaustive_speedup >= 1.0, (
            f"compiled slower on the exhaustive finite search "
            f"({exhaustive_speedup:.2f}x)"
        )

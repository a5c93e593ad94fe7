"""E19 — the native join backend vs the pure-python walkers.

Every decision procedure funnels through the join kernel
(:mod:`repro.kernel.joins`); this experiment measures what compiling
those walkers (:mod:`repro.kernel._native`, ``REPRO_JOIN_BACKEND``)
buys, on three series:

* **E13-mix join series** (the headline): the kernel walkers
  themselves — a cold antecedent ``extend_matches`` enumeration plus a
  ``violation_walk`` per (chased instance, dependency) pair of the E11
  inference-workload mix, i.e. exactly the loops the chase, the model
  checker and the hom engine sit on. Identical states, identical
  compiled plans; only the backend differs.
* **end-to-end ``implies``** — the whole service hot path under each
  backend. Small queries are plan-compile- and outcome-bound, so this
  ratio is expected near 1x; it is recorded (not asserted) to keep the
  overhead picture honest.
* **single-shot small-CQ latency** — a boolean conjunctive query
  against a *fresh* instance per call, the interning-bound shape from
  ROADMAP: the timed section pays ``kernel_view`` construction (bulk
  interning + index build, ``fill_state`` in C under native) plus one
  walk.

Both backends must agree on every observable (match counts, violation
verdicts, implication statuses, CQ verdicts) — a speedup that changes
answers is a bug, not an optimization. The headline criterion (native
>= 1.5x python on the join series in full runs; a coarse >= 1x guard on
``--quick`` CI smoke runs) is asserted here, and the measurements are
written to ``BENCH_joins.json`` at the repository root so the perf
trajectory is machine-readable across PRs. The whole module skips
visibly when the native extension is not built.
"""

from __future__ import annotations

import json
import platform
import random
import time
from pathlib import Path

import pytest

from repro.chase.budget import Budget
from repro.chase.checkplan import compile_check
from repro.chase.engine import chase
from repro.chase.implication import _freeze_target, implies
from repro.dependencies.template import Variable
from repro.kernel.backend import join_backend_override, native_available
from repro.kernel.joins import extend_matches, violation_walk
from repro.relational.instance import Instance
from repro.relational.queries import ConjunctiveQuery
from repro.relational.schema import Schema
from repro.relational.values import Const
from repro.workloads.generators import inference_workload

from conftest import record

EXPERIMENT = "E19 / native join backend vs pure-python walkers"

BUDGET = Budget(max_steps=5_000)

_REPO_ROOT = Path(__file__).resolve().parent.parent

#: Full runs maintain the committed perf-trajectory baseline; --quick
#: smoke runs (CI, local sanity checks) write a sibling file so they
#: never clobber the tracked full-workload numbers.
RESULT_PATH = _REPO_ROOT / "BENCH_joins.json"
QUICK_RESULT_PATH = _REPO_ROOT / "BENCH_joins.quick.json"

BACKENDS = ("python", "native")

pytestmark = pytest.mark.skipif(
    not native_available(),
    reason="repro.kernel._native not built "
    "(python setup.py build_ext --inplace)",
)


@pytest.fixture(scope="module")
def quick(request):
    return request.config.getoption("--quick")


@pytest.fixture(scope="module")
def workload(quick):
    queries = 24 if quick else 120
    return inference_workload(queries=queries, duplicate_fraction=0.35, seed=42)


@pytest.fixture(scope="module")
def join_states(workload, quick):
    """Chased instances of the mix, with their kernel views prebuilt.

    The check pool is the mix's *targets* (3–8 antecedent atoms each):
    model-checking every target against every chased database is
    exactly the join shape E13's engines pay, premise joins and
    conclusion probes included. State construction is identical under
    both backends (the differential suites hold fill_state to the
    python loop), so the views are shared: the timed series below is
    pure walker work.
    """
    dependencies, targets = workload
    n_states = 8 if quick else 30
    states = []
    for target in targets[:n_states]:
        start, __ = _freeze_target(target)
        result = chase(start, dependencies, budget=BUDGET, inplace=True)
        states.append(result.instance.kernel_view())
    checks = [
        compile_check(dependency) for dependency in (*dependencies, *targets)
    ]
    return states, checks


def _run_join_series(states, checks):
    """One pass of the headline series; returns its observable output.

    Per (state, dependency): a cold antecedent enumeration (the model
    checker / trigger-collection shape) and a violation walk (the
    early-exit shape). The totals double as the cross-backend
    correctness fingerprint.
    """
    total_matches = 0
    total_violations = 0
    for state in states:
        for check in checks:
            plan = check.plan
            steps = check.antecedent_steps
            seen: set = set()
            out: list = []
            extend_matches(
                state,
                steps,
                0,
                [0] * plan.n_slots,
                plan.n_universal,
                seen,
                out,
                frozenset(),  # a cold enumeration: no old/delta split
            )
            total_matches += len(out)
            regs = [0] * plan.n_slots
            if violation_walk(state, steps, 0, regs, plan.activity_steps):
                total_violations += 1
    return total_matches, total_violations


def _best_of(callable_, repeats):
    best = None
    value = None
    for __ in range(repeats):
        started = time.perf_counter()
        value = callable_()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None or elapsed < best else best
    return best, value


def _small_cq_workload():
    """A small boolean CQ and a factory of fresh 120-row instances.

    Fresh instance per timed call: the kernel view (bulk interning +
    index build) is paid inside the measurement — the single-shot
    latency shape, where interning dominates the walk.
    """
    schema = Schema(["A", "B", "C"])
    x, y, z, w = (Variable(n) for n in "xyzw")
    query = ConjunctiveQuery(schema, (), [(x, y, z), (y, w, z)])
    rng = random.Random(20_19)
    rows = set()
    while len(rows) < 120:
        rows.add(tuple(rng.randrange(18) for __ in range(3)))
    value_rows = [tuple(Const(v) for v in row) for row in rows]

    def fresh_instance():
        return Instance(schema, value_rows)

    return query, fresh_instance


def test_join_backend_speedup(workload, join_states, quick):
    dependencies, targets = workload
    states, checks = join_states
    repeats = 3 if quick else 5
    calls = 40 if quick else 120  # small-CQ calls per timing pass

    join_times: dict[str, float] = {}
    join_outputs: dict[str, tuple] = {}
    implies_times: dict[str, float] = {}
    implies_statuses: dict[str, list] = {}
    cq_times: dict[str, float] = {}
    cq_verdicts: dict[str, list] = {}
    query, fresh_instance = _small_cq_workload()

    for backend in BACKENDS:
        with join_backend_override(backend):
            # -- join micro-kernel series (headline) --------------------
            _run_join_series(states, checks)  # warm off the clock
            seconds, output = _best_of(
                lambda: _run_join_series(states, checks), repeats
            )
            join_times[backend] = seconds
            join_outputs[backend] = output
            record(
                EXPERIMENT,
                f"join series   {backend:<8} {seconds * 1000:>9.1f} ms "
                f"({len(states)} states x {len(checks)} dependencies)",
            )

            # -- end-to-end implies -------------------------------------
            def run_implies():
                return [
                    implies(dependencies, target, budget=BUDGET).status
                    for target in targets
                ]

            run_implies()  # warm
            seconds, statuses = _best_of(run_implies, repeats)
            implies_times[backend] = seconds
            implies_statuses[backend] = statuses
            record(
                EXPERIMENT,
                f"implies e2e   {backend:<8} {seconds * 1000:>9.1f} ms "
                f"({len(targets)} queries)",
            )

            # -- single-shot small-CQ latency ---------------------------
            def run_small_cq():
                instances = [fresh_instance() for __ in range(calls)]
                started = time.perf_counter()
                verdicts = [query.holds_in(instance) for instance in instances]
                return time.perf_counter() - started, verdicts

            run_small_cq()  # warm
            best = None
            verdicts = None
            for __ in range(repeats):
                elapsed, verdicts = run_small_cq()
                best = elapsed if best is None or elapsed < best else best
            cq_times[backend] = best / calls
            cq_verdicts[backend] = verdicts
            record(
                EXPERIMENT,
                f"small CQ      {backend:<8} {cq_times[backend] * 1e6:>9.1f} "
                f"us/call (fresh instance per call)",
            )

    # Correctness first: identical observables under both backends.
    assert join_outputs["native"] == join_outputs["python"], (
        "join walkers disagree across backends"
    )
    assert implies_statuses["native"] == implies_statuses["python"], (
        "implication verdicts changed across backends"
    )
    assert cq_verdicts["native"] == cq_verdicts["python"], (
        "CQ verdicts changed across backends"
    )

    speedup_join = join_times["python"] / join_times["native"]
    implies_ratio = implies_times["python"] / implies_times["native"]
    small_cq_ratio = cq_times["python"] / cq_times["native"]
    record(
        EXPERIMENT,
        f"native: {speedup_join:.2f}x on the join series, "
        f"{small_cq_ratio:.2f}x single-shot small CQ, "
        f"{implies_ratio:.2f}x end-to-end",
    )

    payload = {
        "experiment": "E19",
        "description": (
            "native join backend vs pure-python walkers: E13-mix join "
            "series, end-to-end implies, single-shot small-CQ latency"
        ),
        "quick": quick,
        "workload": {
            "queries": len(targets),
            "duplicate_fraction": 0.35,
            "seed": 42,
            "budget_max_steps": BUDGET.max_steps,
            "join_states": len(states),
            "small_cq_calls": calls,
        },
        "repeats_best_of": repeats,
        "platform": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
        },
        "join_series_ms": {
            backend: round(seconds * 1000, 3)
            for backend, seconds in join_times.items()
        },
        "implies_ms": {
            backend: round(seconds * 1000, 3)
            for backend, seconds in implies_times.items()
        },
        "small_cq_us_per_call": {
            backend: round(seconds * 1e6, 3)
            for backend, seconds in cq_times.items()
        },
        # The guarded headline (scripts/bench_trend.py tracks all
        # speedup_* keys with a 1.0x floor): the walker loops themselves.
        "speedup_join_native_vs_python": round(speedup_join, 3),
        # Informational ratios, deliberately outside the speedup_*
        # namespace: end-to-end small-query runs are compile- and
        # outcome-bound, so these hover near 1x and would make the
        # trend guard flake without measuring the kernel at all.
        "implies_native_vs_python": round(implies_ratio, 3),
        "small_cq_native_vs_python": round(small_cq_ratio, 3),
    }
    result_path = QUICK_RESULT_PATH if quick else RESULT_PATH
    result_path.write_text(json.dumps(payload, indent=2) + "\n")
    record(EXPERIMENT, f"wrote {result_path.name}")

    if quick:
        # Coarse CI guard: native must never lose to the python walkers
        # it replaces. (Not the 1.5x assertion: the smoke-sized series
        # on a noisy shared runner would flake at tight thresholds.)
        assert speedup_join >= 1.0, (
            f"native join backend slower than python on the smoke series "
            f"({speedup_join:.2f}x)"
        )
    else:
        # The tentpole acceptance bar, on the full-size mix.
        assert speedup_join >= 1.5, (
            f"native join speedup {speedup_join:.2f}x < 1.5x"
        )

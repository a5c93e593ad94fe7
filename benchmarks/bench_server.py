"""E12 — the HTTP server: per-run vs group-commit vs warm-cache over the wire.

Boots real ``repro serve`` subprocesses on ephemeral localhost ports (so
client and server measure across a process boundary, the way deployments
run) and measures three dispatch regimes on a workload whose expensive
queries are budget-bounded UNKNOWNs — the paper's undecidability made
servable:

* **one-request-per-run** — concurrent client threads against a
  ``--max-batch 1`` server: every request is its own
  ``InferenceService.run``, and a single-task run can never use the
  worker pool's parallelism;
* **group commit** — the same concurrent load against a default
  server: no timer, a request that finds the server idle runs at once,
  and the requests that queue while a run is busy share the next run,
  so canonical dedup collapses duplicates *across clients* before any
  chase starts, and each shared run fans its misses over the worker
  pool — on a multi-core host the chase work that the per-run regime
  serializes runs ``--workers``-wide;
* **warm cache** — a second client re-issues the whole workload
  alpha-renamed as one ``/v1/batch``: served >= 90% from the cache the
  first clients populated with zero new chases (UNKNOWN verdicts
  included — their budgets cover the identical request), asserted
  through ``/v1/stats``.

Run with ``--quick`` for a smoke-sized workload (CI); the throughput
assertion (group commit beats per-run) is enforced only at full size,
where the margin is far above scheduler noise.
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.chase.budget import Budget
from repro.chase.implication import InferenceStatus
from repro.dependencies.parser import parse_td
from repro.dependencies.template import TemplateDependency, Variable
from repro.relational.schema import Schema
from repro.service import ServiceClient
from repro.service.testing import ServeSubprocess
from repro.workloads.generators import disguise, transitivity_family

from conftest import record

EXPERIMENT = "E12 / HTTP server: per-run vs group commit vs warm cache"

#: Per-query budget: unprovable targets under the diverging premise set
#: burn exactly this much chase before their honest UNKNOWN.
BUDGET = Budget(max_steps=120, max_rows=50_000)
QUICK_BUDGET = Budget(max_steps=40, max_rows=50_000)

SCHEMA = Schema(["FROM", "TO"])


def _diverging_premises() -> list[TemplateDependency]:
    """Transitivity plus a successor TD: the chase never terminates, so
    every unprovable target costs its full budget — the expensive case
    a production verdict server actually faces."""
    return [
        parse_td("R(x, y) & R(y, z) -> R(x, z)"),
        parse_td("R(x, y) -> R(y, x2)"),
    ]


def _backward_edge(chain: int, source: int, sink: int) -> TemplateDependency:
    """A chain antecedent whose conclusion points backwards — never
    derivable from the diverging premises (fresh successors cannot reach
    frozen constants), hence UNKNOWN at any finite budget."""
    heads = [Variable(f"a{index}") for index in range(chain + 1)]
    return TemplateDependency(
        SCHEMA,
        [(heads[index], heads[index + 1]) for index in range(chain)],
        (heads[source], heads[sink]),
        name=f"back-{chain}-{source}-{sink}",
    )


def server_workload(
    queries: int, duplicate_fraction: float = 0.35, seed: int = 7
) -> tuple[list[TemplateDependency], list[TemplateDependency]]:
    """Mixed provable/UNKNOWN traffic with disguised duplicates."""
    rng = random.Random(seed)
    backward_edges = [
        (chain, source, sink)
        for chain in range(3, 9)
        for source in range(1, chain + 1)
        for sink in range(source)
    ]
    rng.shuffle(backward_edges)
    targets: list[TemplateDependency] = []
    for number in range(queries):
        if targets and rng.random() < duplicate_fraction:
            targets.append(disguise(rng.choice(targets), seed=number, tag="q"))
        elif rng.random() < 0.5:
            _, path_target = transitivity_family(rng.randrange(3, 8))
            targets.append(disguise(path_target, seed=number, tag="p"))
        else:
            chain, source, sink = backward_edges[number % len(backward_edges)]
            targets.append(_backward_edge(chain, source, sink))
    return _diverging_premises(), targets


@pytest.fixture(scope="module")
def quick(request):
    return request.config.getoption("--quick")


@pytest.fixture(scope="module")
def workload(quick):
    queries = 12 if quick else 40
    return server_workload(queries=queries, duplicate_fraction=0.35, seed=7)


def _timed(label, fn):
    started = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - started
    record(EXPERIMENT, f"{label:<40} {elapsed * 1000:>10.1f} ms")
    return result, elapsed


def test_server_throughput_and_cross_client_cache(workload, quick):
    dependencies, targets = workload
    budget = QUICK_BUDGET if quick else BUDGET
    client_threads = 8 if quick else 16
    workers = "2"

    def dispatch_against(base_url):
        def one_request(target):
            return ServiceClient(base_url).implies(
                dependencies, target, budget=budget, certificates=False
            )

        with ThreadPoolExecutor(max_workers=client_threads) as executor:
            return list(executor.map(one_request, targets))

    # --- one-request-per-run: --max-batch 1, same concurrent load ------
    with ServeSubprocess("--max-batch", "1", "--workers", workers) as serial_server:
        serial_verdicts, serial_seconds = _timed(
            f"per-run dispatch, {client_threads} client threads",
            lambda: dispatch_against(serial_server.base_url),
        )
        serial_stats = ServiceClient(serial_server.base_url).stats()
    record(
        EXPERIMENT,
        f"  per-run: {serial_stats['server']['batches']} runs for "
        f"{serial_stats['server']['queries']} requests, "
        f"{serial_stats['server']['executed']} chased",
    )

    # --- group commit: default server, same concurrent load ------------
    with ServeSubprocess("--workers", workers) as batched_server:
        batched_verdicts, batched_seconds = _timed(
            f"group commit, {client_threads} client threads",
            lambda: dispatch_against(batched_server.base_url),
        )
        observer = ServiceClient(batched_server.base_url)
        mid_stats = observer.stats()
        record(
            EXPERIMENT,
            f"  shared {mid_stats['server']['batches']} run(s); "
            f"dedup+cache answered "
            f"{mid_stats['server']['deduplicated'] + mid_stats['server']['cache_hits']}"
            f"/{mid_stats['server']['queries']}",
        )

        # --- warm cache: a second client, alpha-renamed batch ----------
        renamed = [
            disguise(target, seed=9_000 + index, tag="w")
            for index, target in enumerate(targets)
        ]
        second_client = ServiceClient(batched_server.base_url)
        warm_report, warm_seconds = _timed(
            "warm /v1/batch (alpha-renamed, 2nd client)",
            lambda: second_client.batch(
                dependencies, renamed, budget=budget, certificates=False
            ),
        )
        warm_stats = second_client.stats()

    # Correctness: all three regimes agree, query for query.
    expected = [verdict.status for verdict in serial_verdicts]
    assert [verdict.status for verdict in batched_verdicts] == expected
    assert warm_report.statuses == expected
    assert InferenceStatus.UNKNOWN in expected  # the workload is honest

    # Cross-client sharing: the renamed batch is served >= 90% from the
    # cache the first clients populated, with zero new chases — UNKNOWN
    # verdicts included, because their recorded budgets cover the
    # identical request.
    from_cache = warm_report.stats["from_cache"]
    assert from_cache >= 0.9 * len(renamed)
    assert warm_stats["server"]["executed"] == mid_stats["server"]["executed"]
    record(
        EXPERIMENT,
        f"  warm: {from_cache}/{len(renamed)} from cache, 0 new chases; "
        f"speedup over serial {serial_seconds / max(warm_seconds, 1e-9):.0f}x",
    )

    # Group commit shared runs: strictly fewer runs than requests, and
    # no more chases than the per-run regime (a shared run dedups the
    # concurrent duplicates the per-run server re-chases).
    assert mid_stats["server"]["batches"] < mid_stats["server"]["queries"]
    assert (
        mid_stats["server"]["executed"] <= serial_stats["server"]["executed"]
    )

    # The acceptance bar: group-commit dispatch (shared runs,
    # cross-client dedup, pool parallelism) beats one-request-per-run
    # dispatch. The wall-clock edge comes from running each shared
    # run's misses --workers wide, so it is only enforced where the
    # hardware can express it: full-size runs on a multi-core host (a
    # single-core box serializes both regimes into near-parity, and the
    # --quick margin is milliseconds on a noisy CI runner).
    cores = os.cpu_count() or 1
    record(
        EXPERIMENT,
        f"  per-run {serial_seconds * 1000:.0f} ms vs group commit "
        f"{batched_seconds * 1000:.0f} ms on {cores} core(s)",
    )
    if not quick and cores >= 2:
        assert batched_seconds < serial_seconds

"""``batch_mix``: E11-style batches through an in-process service.

One ``InferenceService(workers=0)`` answers a seeded stream of batches
from :func:`repro.workloads.generators.inference_workload`: premises
{transitivity}, targets a mix of path closures and random full TDs,
35% disguised duplicates, one result cache shared by every batch of a
part. The unit of work is one batch, timed in CPU time
(:func:`common.unit_clock`); the loop is closed (the next batch is
submitted when the previous one returns). Set-up builds the service
and warms it with ``WARM_BATCHES`` batches, so the measured batches
meet a filled cache and compiled plans rather than each part's cold
start; later batches are generated between units, outside the timed
calls.

Ground truth: {transitivity} entails a full target exactly when its
conclusion pair is in the transitive closure of its antecedent edges.
"""

from __future__ import annotations

import itertools
import time

from common import (
    Speedometer,
    Tally,
    peak_rss_mb,
    timed,
    transitively_entailed,
    unit_clock,
    verdict_is_wrong,
)

#: Queries per batch (E11 uses 120). 96 keeps a unit near 30 ms, long
#: enough that a short scheduling stall does not make a tail
#: unit on its own, and short enough that a run holds over 1000 units,
#: ten of them beyond the p99.
BATCH_QUERIES = 96
DUPLICATE_FRACTION = 0.35
#: A batch answered within this limit counts towards ``slo_share``.
SLO_SECONDS = 0.100
#: Units per throughput segment.
SEGMENT = 25
WARM_BATCHES = 16
#: Parts per run, each a fresh interpreter (see run.py).
PARTS = 4
#: Batches a part measures at least, so that a run holds 1000 and at
#: least ten of them lie beyond its p99 on a slow machine too.
MIN_UNITS = 250


def _batches(seed: int, part: int):
    from repro.workloads.generators import inference_workload

    number = 0
    while True:
        yield inference_workload(
            queries=BATCH_QUERIES,
            duplicate_fraction=DUPLICATE_FRACTION,
            seed=seed * 1_000_003 + part * 100_003 + number,
        )
        number += 1


def run(seed: int, part: int, seconds: float, trace: bool = False, flip: bool = False) -> dict:
    from repro.chase.budget import Budget
    from repro.service import InferenceService

    budget = Budget(max_steps=10_000, max_rows=50_000, max_seconds=None)

    def build():
        service = InferenceService(workers=0)
        stream = _batches(seed, part)
        for dependencies, targets in itertools.islice(stream, WARM_BATCHES):
            service.run_batch(dependencies, targets, budget)
        return service, stream

    (service, stream), setup_s = timed(build)
    tracer = counters = None
    if trace:
        from spans import Tracer, instrument

        tracer = Tracer()
        counters = instrument(tracer)
    tally = Tally(SLO_SECONDS)
    speed = Speedometer()
    units = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or units % SEGMENT or units < MIN_UNITS:
        speed.probe_if_due()
        dependencies, targets = next(stream)
        expected = [transitively_entailed(target) for target in targets]
        if flip and units == 0:
            expected[0] = not expected[0]  # self-test: one wrong answer key
        started = unit_clock()
        if tracer is not None:
            with tracer.unit(units):
                report = service.run_batch(dependencies, targets, budget)
        else:
            report = service.run_batch(dependencies, targets, budget)
        elapsed = unit_clock() - started
        units += 1
        ok = True
        for outcome, entailed in zip(report.outcomes, expected):
            status = outcome.status.value
            ok &= tally.verdict(status, verdict_is_wrong(status, entailed))
        tally.unit(elapsed, ok)
    return {
        "tally": tally,
        "segment_units": SEGMENT,
        "setup_s": [setup_s],
        "speed": speed,
        "rss_mb": peak_rss_mb(),
        "units": units,
        "tracer": tracer,
        "counters": counters,
        "snapshot": service.metrics.snapshot(),
        "attributes": {"batch_queries": BATCH_QUERIES},
    }

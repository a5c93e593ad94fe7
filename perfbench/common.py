"""Shared pieces of the benchmark: ground truth, statistics, results.

Nothing here imports :mod:`repro`; the ground-truth oracles work on the
generated inputs only, so a verdict is checked against an answer the
program under test never computed.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import platform
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Optional

#: Checkout root (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent

#: Where runs leave their result records and span dumps.
OUT_DIR = ROOT / ".perfbench"

#: Verdict names, as :class:`repro.chase.InferenceStatus` values.
PROVED, DISPROVED, FAILED = "proved", "disproved", "failed"

#: Every end-to-end metric, with its unit, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_qps", "units/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("decided_share", "ratio"),
    ("success_share", "ratio"),
    ("slo_share", "ratio"),
    ("peak_rss_mb", "MB"),
)


def transitively_entailed(target) -> bool:
    """Ground truth for premise sets of transitivity (plus successor).

    ``{R(x,y) & R(y,z) -> R(x,z)}`` entails a full binary target exactly
    when the conclusion pair lies in the transitive closure of the
    antecedent edges. Adding the successor rule ``R(x,y) -> R(y,x2)``
    changes nothing between frozen values: its fresh nulls only ever
    point at other nulls, so no path between frozen values runs
    through one.
    """
    successors = defaultdict(set)
    for source, sink in target.antecedents:
        successors[source].add(sink)
    start, goal = target.conclusion
    frontier, seen = list(successors[start]), set()
    while frontier:
        node = frontier.pop()
        if node == goal:
            return True
        if node not in seen:
            seen.add(node)
            frontier.extend(successors[node])
    return False


def verdict_is_wrong(status: str, entailed: bool) -> bool:
    """A decisive verdict that contradicts ground truth (UNKNOWN never is)."""
    return (status == PROVED and not entailed) or (
        status == DISPROVED and entailed
    )


def percentile(sorted_values, fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1]


def median(values) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def peak_rss_mb() -> float:
    """Peak resident set of this process in MB (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set of another live process (Linux ``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def unit_clock() -> float:
    """The clock of a unit of work on the in-process workloads.

    ``batch_mix`` and ``gl_reduction`` do their work on one thread of
    the measuring process, with no I/O and no waiting, so a unit's
    latency is that process's CPU time over the unit. It counts the
    program's own work and its garbage collections. It leaves out the
    time the host gives the CPU to other tenants.
    """
    return time.process_time()


def timed(build):
    """Run ``build`` once; return (its result, CPU seconds taken)."""
    started = unit_clock()
    result = build()
    return result, unit_clock() - started


#: The reference loop's table: tuple keys of atomic values (untracked by
#: the garbage collector once they survive a collection) and a quarter
#: of them to look up. A few MB, like the program's working set, so the
#: loop slows down with the machine as the program does.
_REFERENCE_TABLE = {
    (number % 97, number % 89, str(number % 13), number): number for number in range(20_000)
}
_REFERENCE_KEYS = list(_REFERENCE_TABLE)[::4]
#: Thread CPU time of one reference pass between units of work on the
#: machine the baseline was measured on, at its median speed (2-CPU
#: shared x86-64 host, CPython 3.11.7). A time scaled by
#: :meth:`Speedometer.factor` reads as it would have at that speed.
REFERENCE_PASS_SECONDS = 0.001_25


def reference_pass() -> float:
    """Thread CPU time of one pass of a fixed interpreter-bound loop:
    dict lookups and tuple hashing over the reference table. It
    allocates nothing the garbage collector tracks, so a pass neither
    triggers nor pays for a collection of the program's heap."""
    table = _REFERENCE_TABLE
    total = 0
    started = time.thread_time()
    for key in _REFERENCE_KEYS:
        total += table[key] + hash(key) % 7
    return time.thread_time() - started


class Speedometer:
    """The speed of the shared machine, sampled while a run measures.

    The CPU a run gets on a shared host speeds up and slows down as
    other tenants come and go: CPU time as well as wall time for the
    same work moved by up to 2x between seconds and by 15-30% between
    runs made minutes apart. A fixed reference loop that does not touch
    the program slows down with it. Each probe runs ``PASSES`` passes of
    the loop and keeps their median. :meth:`factor_at` is
    ``REFERENCE_PASS_SECONDS`` over the median of the ``WINDOW`` probes
    nearest in time; a reported time is multiplied by it (a throughput
    divided), so that it reads as at the reference speed. Probes run
    between units of work, never inside one, while the program under
    test is idle.
    """

    PASSES = 5
    WINDOW = 5
    #: Seconds of measuring between two probes of the in-process loops.
    INTERVAL = 0.25

    def __init__(self) -> None:
        self.times: list[float] = []
        self.samples: list[float] = []
        self._next = 0.0

    def probe(self) -> None:
        passes = []
        for __ in range(self.PASSES):
            passes.append(reference_pass())
            time.sleep(0)  # let other threads of this process run between passes
        now = time.perf_counter()
        self.times.append(now)
        self.samples.append(median(passes))
        self._next = now + self.INTERVAL

    def due(self) -> bool:
        return time.perf_counter() >= self._next

    def probe_if_due(self) -> None:
        if self.due():
            self.probe()

    def factor(self) -> float:
        """The run's factor, from the median of all its probes."""
        return REFERENCE_PASS_SECONDS / median(self.samples)

    def factor_at(self, moment: float) -> float:
        """The factor at ``moment`` (a ``time.perf_counter`` reading)."""
        count = len(self.samples)
        nearest = bisect.bisect_left(self.times, moment)
        low = max(0, min(nearest - self.WINDOW // 2, count - self.WINDOW))
        return REFERENCE_PASS_SECONDS / median(self.samples[low : low + self.WINDOW])


class Tally:
    """Per-run bookkeeping shared by every workload.

    ``latencies`` holds one time per unit of work; ``operations``
    counts what was attempted (queries or requests), ``failed`` the
    errors, FAILED outcomes, refusals and wrong decisive verdicts among
    them, ``wrong`` the wrong verdicts alone.
    """

    def __init__(self, slo_seconds: float):
        self.slo_seconds = slo_seconds
        self.latencies: list[float] = []
        self.ok: list[bool] = []
        self.ended: list[float] = []
        self.operations = 0
        self.failed = 0
        self.wrong = 0
        self.answered = 0
        self.decided = 0
        self.errors: list[str] = []

    def unit(self, seconds: float, ok: bool, ended: Optional[float] = None) -> None:
        """One unit of work: its latency, whether it was answered
        correctly, and when it ended (a ``time.perf_counter`` reading;
        now, by default)."""
        self.latencies.append(seconds)
        self.ok.append(ok)
        self.ended.append(time.perf_counter() if ended is None else ended)

    def scale(self, speed: Speedometer) -> None:
        """Bring every latency to the reference speed, by the factor
        at the moment its unit ended."""
        self.latencies = [
            seconds * speed.factor_at(ended) for seconds, ended in zip(self.latencies, self.ended)
        ]

    def segments(self, size: int) -> list[float]:
        """Throughput of each run of ``size`` consecutive units."""
        latencies = self.latencies
        return [
            size / sum(latencies[start : start + size])
            for start in range(0, len(latencies) - size + 1, size)
        ]

    def verdict(self, status: str, wrong: bool) -> bool:
        """Count one answered query; returns False when it failed.

        ``wrong`` is the workload's ground-truth judgement of
        ``status``.
        """
        self.operations += 1
        if status == FAILED:
            self.failed += 1
            return False
        self.answered += 1
        if status in (PROVED, DISPROVED):
            self.decided += 1
        if wrong:
            self.wrong += 1
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"wrong verdict {status}")
        return not wrong

    def failure(self, message: str) -> None:
        self.operations += 1
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    COUNTS = ("operations", "failed", "wrong", "answered", "decided")

    def to_json(self) -> dict:
        payload = {name: getattr(self, name) for name in self.COUNTS}
        payload.update(
            latencies=self.latencies,
            ok=self.ok,
            errors=self.errors,
            slo_seconds=self.slo_seconds,
        )
        return payload

    @classmethod
    def merged(cls, payloads) -> "Tally":
        """One tally over the parts of a run."""
        tally = cls(payloads[0]["slo_seconds"])
        for payload in payloads:
            for name in cls.COUNTS:
                setattr(tally, name, getattr(tally, name) + payload[name])
            tally.latencies.extend(payload["latencies"])
            tally.ok.extend(payload["ok"])
            tally.errors.extend(payload["errors"])
        return tally

    def end_to_end(self, setup_seconds, rss_mb, segments) -> dict:
        """The end-to-end metrics. ``setup_seconds`` holds one set-up
        time per part and ``segments`` the throughputs of the run's
        consecutive segments; both are reported by their median."""
        ordered = sorted(self.latencies)
        within_slo = sum(
            ok and seconds <= self.slo_seconds for seconds, ok in zip(self.latencies, self.ok)
        )
        return {
            "setup_s": median(setup_seconds),
            "throughput_qps": median(segments),
            "latency_p50_ms": percentile(ordered, 0.50) * 1000.0,
            "latency_p99_ms": percentile(ordered, 0.99) * 1000.0,
            "decided_share": self.decided / max(1, self.answered),
            "success_share": 1.0 - self.failed / max(1, self.operations),
            "slo_share": within_slo / max(1, len(ordered)),
            "peak_rss_mb": rss_mb,
        }


def run_attributes(seed: int, workload: str, **extra) -> dict:
    """What every result records about the run that produced it."""
    from repro.kernel.backend import resolve_join_backend

    return {
        "workload": workload,
        "seed": seed,
        "join_backend": resolve_join_backend(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count() or 1,
        "platform": platform.platform(),
        **extra,
    }


def write_record(name: str, record: dict) -> Path:
    """Store one run's full record under ``.perfbench/results``."""
    directory = OUT_DIR / "results"
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def log(message: str) -> None:
    """Progress and report lines go to stdout before the result line."""
    print(message, flush=True)


def die(message: str, code: int = 2) -> "None":
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    raise SystemExit(code)

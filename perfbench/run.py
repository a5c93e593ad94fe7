"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {batch_mix,gl_reduction,http_mix} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``
(pure Python, nothing to build). Every verdict is checked against
ground truth the program does not compute (see each workload module).

``--trace 0`` measures the workload in its ``PARTS`` consecutive parts,
each in a fresh interpreter running ``S / PARTS`` seconds, and prints
every end-to-end metric over the pooled parts. A fresh interpreter
starts with cold per-process memos, as after a restart; pooling several
of them averages out what differs from one process to the next (such
as the memory layout behind identity-hashed sets), which one long
process would keep for its whole run. ``http_mix`` runs as one part:
its server's cache and heap growth over the run are part of what it
measures.

``batch_mix`` and ``gl_reduction`` time their work in CPU time and
bring it to a reference machine speed measured while they run
(:class:`common.Speedometer`); ``http_mix`` times in wall-clock time,
as its client sees it. README.md ("Timing on a shared machine") says
why.

``--trace 1`` runs part 0 for the full ``S`` seconds twice, each in a
fresh interpreter: untraced, as the reference for the tracing overhead,
then traced, and prints every per-layer metric.

Human-readable report lines come first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The full record (metrics, run attributes,
errors) goes to ``.perfbench/results/<workload>-seed<N>-trace<T>.json``
and traced spans to ``.perfbench/traces/``. The exit code is 0 when
every answer was correct, 1 when one was not or a part failed, 2 on a
usage or layout error.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

from common import END_TO_END, OUT_DIR, ROOT, Tally, die, log, run_attributes, write_record

HERE = Path(__file__).resolve().parent
WORKLOADS = ("batch_mix", "gl_reduction", "http_mix")
#: Seconds a part may take before it counts as hung.
PART_TIMEOUT = 170


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--flip",
        action="store_true",
        help="self-test: invert the expected answer of the first decisive verdict",
    )
    parser.add_argument("--part", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--raw", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _part(args) -> int:
    """Child mode: run one part and write its raw results to ``--raw``."""
    workload = __import__(args.workload)
    result = workload.run(
        args.seed, args.part, args.seconds, trace=bool(args.trace), flip=args.flip
    )
    tally = result["tally"]
    speed = result.get("speed")
    if speed is None:  # wall-clock times, as a client sees them (http_mix)
        factor = setup_factor = 1.0
        segments = result["segments"]
    else:
        # CPU times, brought to the reference machine speed (see Speedometer).
        factor = speed.factor()
        setup_factor = speed.factor_at(speed.times[0])  # set-up ends as probing starts
        tally.scale(speed)
        segments = tally.segments(result["segment_units"])
    raw = {
        "tally": tally.to_json(),
        "segments": segments,
        "setup_s": [seconds * setup_factor for seconds in result["setup_s"]],
        "rss_mb": result["rss_mb"],
        "units": result["units"],
        "speed_factor": factor,
        "attributes": run_attributes(args.seed, args.workload, **result["attributes"]),
    }
    if args.trace:
        import layers

        tracer = result.get("tracer")
        if tracer is None:
            raw["per_layer"] = layers.from_server(result)
        else:
            raw["per_layer"] = layers.in_process(result, tracer)
            tracer.dump(OUT_DIR / "traces" / f"{args.workload}-seed{args.seed}.json")
    args.raw.write_text(json.dumps(raw))
    return 0


def _spawn(args, part: int, seconds: float, trace: int, flip: bool) -> dict:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"part-{args.workload}-{args.seed}-{trace}-{part}.json"
    path.unlink(missing_ok=True)
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--trace", str(trace),
        "--part", str(part),
        "--raw", str(path),
    ] + (["--flip"] if flip else [])
    # Its own process group, so a hung part is stopped together with
    # any server it started.
    child = subprocess.Popen(command, stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        code = child.wait(timeout=PART_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        die(f"part {part} took longer than {PART_TIMEOUT}s", 1)
    if code != 0 or not path.exists():
        die(f"part {part} exited {code}", 1)
    raw = json.loads(path.read_text())
    path.unlink()
    return raw


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        die("--seconds must be positive")
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        die(f"no program to measure: {source / 'repro'} is missing")
    sys.path.insert(0, str(source))
    if args.part is not None:
        return _part(args)

    if args.trace:
        reference = _spawn(args, 0, args.seconds, 0, False)
        parts = [_spawn(args, 0, args.seconds, 1, args.flip)]
    else:
        count = __import__(args.workload).PARTS
        parts = [
            _spawn(args, part, args.seconds / count, 0, args.flip and part == 0)
            for part in range(count)
        ]
    backends = {raw["attributes"]["join_backend"] for raw in parts}
    if len(backends) != 1:
        die(f"parts ran on different join backends: {sorted(backends)}", 1)
    tally = Tally.merged([raw["tally"] for raw in parts])
    attributes = dict(parts[0]["attributes"])
    attributes.update(
        seconds=args.seconds,
        trace=args.trace,
        parts=len(parts),
        speed_factors=[round(raw["speed_factor"], 4) for raw in parts],
    )
    if args.trace:
        import layers

        metrics = parts[0]["per_layer"]
        latencies = tally.latencies
        common = min(len(latencies), len(reference["tally"]["latencies"]))
        metrics["trace.overhead_share"] = (
            sum(latencies[:common]) / sum(reference["tally"]["latencies"][:common]) - 1.0
        )
        units = dict(layers.PER_LAYER)
    else:
        metrics = tally.end_to_end(
            [seconds for raw in parts for seconds in raw["setup_s"]],
            max(raw["rss_mb"] for raw in parts),
            [segment for raw in parts for segment in raw["segments"]],
        )
        units = dict(END_TO_END)
    correct = tally.wrong == 0 and tally.operations > 0
    record = {
        "attributes": attributes,
        "correct": correct,
        "attempted": tally.operations,
        "failed": tally.failed,
        "wrong": tally.wrong,
        "errors": tally.errors,
        "units": sum(raw["units"] for raw in parts),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    path = write_record(f"{args.workload}-seed{args.seed}-trace{args.trace}", record)

    log(f"perfbench {args.workload}: " + ", ".join(f"{k}={v}" for k, v in attributes.items()))
    log(f"  units of work: {record['units']}, operations: {tally.operations}, "
        f"failed: {tally.failed}, wrong verdicts: {tally.wrong}")
    for error in tally.errors:
        log(f"  error: {error}")
    for name, unit in units.items():
        log(f"  {name:<34} {metrics[name]:>14.6g} {unit}")
    log(f"  record: {path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.operations,
                "failed": tally.failed,
                "metrics": record["metrics"],
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())

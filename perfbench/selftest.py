"""Self-tests of the benchmark at a tiny size.

    python3 perfbench/selftest.py [--seconds 1]

For every workload: a run prints every end-to-end metric by name with
its unit and answers correctly; a run on a second seed is clean too; a
traced run prints every per-layer metric; and a run whose answer key
has one expected answer flipped (``--flip``) fails with exit code 1 and
``"correct": false``. Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from common import END_TO_END
from layers import PER_LAYER
from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def _run(workload: str, seed: int, seconds: float, *extra: str):
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        *extra,
    ]
    child = subprocess.run(command, capture_output=True, text=True, timeout=175, check=False)
    lines = child.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return child.returncode, lines, result


def _prints_every_metric(lines, result, metrics) -> bool:
    if result is None:
        return False
    report = "\n".join(lines[:-1])
    return all(
        result["metrics"].get(name, {}).get("unit") == unit and f" {unit}" in report and name in report
        for name, unit in metrics
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args(argv)
    failures = 0

    def check(label: str, passed: bool) -> None:
        nonlocal failures
        failures += not passed
        print(f"{'PASS' if passed else 'FAIL'}  {label}", flush=True)

    for workload in WORKLOADS:
        code, lines, result = _run(workload, 1, args.seconds, "--trace", "0")
        check(f"{workload}: seed 1 runs correct", code == 0 and bool(result and result["correct"]))
        check(f"{workload}: every end-to-end metric printed with its unit",
              _prints_every_metric(lines, result, END_TO_END))
        code, lines, result = _run(workload, 2, args.seconds, "--trace", "0")
        check(f"{workload}: seed 2 runs clean", code == 0 and bool(result and result["correct"]))
        code, lines, result = _run(workload, 1, args.seconds, "--trace", "1")
        check(f"{workload}: traced run prints every per-layer metric",
              code == 0 and _prints_every_metric(lines, result, PER_LAYER))
        code, lines, result = _run(workload, 1, args.seconds, "--trace", "0", "--flip")
        check(f"{workload}: one flipped expected answer fails the run",
              code == 1 and result is not None and result["correct"] is False)
    print(f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Compare two benchmark results of one workload, metric by metric.

    python3 perfbench/compare.py BASE NEW [--workload W]

``BASE`` and ``NEW`` are run records (``.perfbench/results/*.json``) or
the committed ``perfbench/baseline.json`` (then ``--workload`` picks
its medians). Runs on different join backends are refused (exit 3): a
native-vs-python difference is not a change of the program.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path


def load(path: Path, workload):
    """(attributes, workload name, {metric: (value, unit)})."""
    payload = json.loads(path.read_text())
    attributes = payload["attributes"]
    if "workloads" in payload:
        if workload is None:
            raise SystemExit(f"{path}: pass --workload to pick from the baseline")
        entry = payload["workloads"][workload]
        metrics = {
            name: (stats["median"], stats["unit"])
            for section in ("end_to_end", "per_layer")
            for name, stats in entry.get(section, {}).items()
        }
        return attributes, workload, metrics
    metrics = {name: (m["value"], m["unit"]) for name, m in payload["metrics"].items()}
    return attributes, attributes["workload"], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--workload")
    args = parser.parse_args(argv)
    base_attributes, base_workload, base = load(args.base, args.workload)
    new_attributes, new_workload, new = load(args.new, args.workload)
    if base_attributes["join_backend"] != new_attributes["join_backend"]:
        print(
            f"refusing to compare: join backend {base_attributes['join_backend']!r} "
            f"vs {new_attributes['join_backend']!r}"
        )
        return 3
    if base_workload != new_workload:
        print(f"refusing to compare: workload {base_workload!r} vs {new_workload!r}")
        return 3
    print(f"{'metric':<34} {'base':>12} {'new':>12} {'change':>8}  unit")
    for name, (value, unit) in new.items():
        if name not in base:
            continue
        reference = base[name][0]
        change = f"{(value / reference - 1.0) * 100:+7.1f}%" if reference else "    n/a"
        print(f"{name:<34} {reference:>12.5g} {value:>12.5g} {change:>8}  {unit}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``infer`` — the paper's inference problem on dependency files:
  does the set imply the target? Exit code 0 = proved, 1 = disproved,
  2 = unknown (the honest third value).
* ``batch`` — the batch inference service: a file of targets in, a
  per-target verdict table plus cache/dedup statistics out, with an
  optional worker pool and on-disk result cache.
* ``serve`` — the long-lived asyncio HTTP server over the same service:
  concurrent clients share runs by group commit, so dedup and
  the result cache work across clients.
* ``stats`` — poll a running server's ``/v1/stats`` and render the
  counters and per-stage latency histograms as tables (``--watch`` for
  a live view).
* ``models`` — drive a running server's maintained universal models:
  register a dependency program with base facts, stream inserts and
  deletes (incremental re-chase server-side), check implications
  against the maintained fixpoint, list/inspect/drop.
* ``classify`` — run the Main-Theorem classifier on a presentation file
  (direction (A), then direction (B), else UNKNOWN).
* ``encode`` — show the ``φ ↦ (D, D0)`` encoding for a presentation
  (sizes, and optionally every dependency).
* ``diagram`` — render a dependency's Figure-1-style diagram (ASCII or
  Graphviz DOT).
* ``demo`` — a one-screen tour: both directions of the Reduction
  Theorem on the canonical instances.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.chase.budget import Budget
from repro.chase.implication import InferenceStatus
from repro.core.inference import Semantics, infer
from repro.dependencies.diagram import diagram_of
from repro.dependencies.parser import parse_dependency
from repro.dependencies.render import render_ascii, render_dot
from repro.errors import ReproError
from repro.io.textfmt import parse_dependency_file, parse_presentation_text
from repro.reduction.encode import encode
from repro.reduction.theorem import InstanceClass, classify_instance

#: Exit codes for the three-valued commands.
EXIT_PROVED = 0
EXIT_DISPROVED = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Gurevich & Lewis (1982): template-dependency inference, runnable.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    infer_cmd = commands.add_parser(
        "infer", help="does a dependency file imply a target dependency?"
    )
    infer_cmd.add_argument("--deps", required=True, help="dependency file (one per line)")
    infer_cmd.add_argument("target", help="target dependency, e.g. 'R(x,y)->R(y,x)'")
    infer_cmd.add_argument(
        "--semantics", choices=["unrestricted", "finite"], default="unrestricted"
    )
    infer_cmd.add_argument("--max-steps", type=int, default=10_000)
    infer_cmd.add_argument("--max-seconds", type=float, default=30.0)
    infer_cmd.add_argument(
        "--dump-certificate",
        metavar="FILE",
        help="write the proof trace (PROVED) or counterexample database "
        "(DISPROVED) as JSON",
    )

    batch_cmd = commands.add_parser(
        "batch",
        help="batch inference: dedup, result cache and a parallel chase pool",
    )
    batch_cmd.add_argument("--deps", required=True, help="dependency file (one per line)")
    batch_cmd.add_argument(
        "--targets", required=True, help="target dependency file (one per line)"
    )
    batch_cmd.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes for cache misses (0 = in-process serial)",
    )
    batch_cmd.add_argument(
        "--cache",
        metavar="FILE",
        help="JSON-lines result cache; read on start, appended on new verdicts",
    )
    batch_cmd.add_argument("--max-steps", type=int, default=10_000)
    batch_cmd.add_argument("--max-seconds", type=float, default=30.0)

    serve_cmd = commands.add_parser(
        "serve",
        help="long-lived HTTP inference server (asyncio, group-commit batching)",
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument(
        "--port", type=int, default=8765, help="0 binds an ephemeral port"
    )
    serve_cmd.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes for cache misses (0 = in-process serial)",
    )
    serve_cmd.add_argument(
        "--cache-path",
        metavar="FILE",
        help="JSON-lines disk cache tier; verdicts survive restarts",
    )
    serve_cmd.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="cap on queries in one run (1 = one request per run)",
    )
    serve_cmd.add_argument(
        "--max-steps",
        type=int,
        default=10_000,
        help="per-query budget ceiling (chase steps)",
    )
    serve_cmd.add_argument(
        "--max-rows",
        type=int,
        default=50_000,
        help="per-query budget ceiling (instance rows)",
    )
    serve_cmd.add_argument(
        "--max-seconds",
        type=float,
        default=30.0,
        help="per-query budget ceiling (wall-clock seconds)",
    )
    serve_cmd.add_argument(
        "--max-models",
        type=int,
        default=32,
        help="maintained universal models held before LRU eviction",
    )
    serve_cmd.add_argument(
        "--max-queue",
        type=int,
        default=256,
        help="admission-queue depth; requests past it are shed with "
        "429 + Retry-After",
    )
    serve_cmd.add_argument(
        "--drain-timeout",
        type=float,
        default=5.0,
        help="seconds to finish in-flight queries on shutdown "
        "(/readyz answers 503 while draining)",
    )
    serve_cmd.add_argument(
        "--max-restarts",
        type=int,
        default=3,
        help="worker-pool rebuilds one batch may consume after worker "
        "crashes before undecided queries are answered FAILED",
    )

    stats_cmd = commands.add_parser(
        "stats",
        help="render a running server's /v1/stats as tables",
    )
    stats_cmd.add_argument(
        "--url",
        default="http://127.0.0.1:8765",
        help="server base URL (default: http://127.0.0.1:8765)",
    )
    stats_cmd.add_argument(
        "--watch",
        type=float,
        metavar="SECONDS",
        help="re-poll and re-render every SECONDS until interrupted",
    )

    models_cmd = commands.add_parser(
        "models",
        help="maintained universal models on a running server (/v1/models)",
    )
    url_parent = argparse.ArgumentParser(add_help=False)
    url_parent.add_argument(
        "--url",
        default="http://127.0.0.1:8765",
        help="server base URL (default: http://127.0.0.1:8765)",
    )
    models_actions = models_cmd.add_subparsers(dest="action", required=True)
    models_actions.add_parser(
        "list", parents=[url_parent], help="summaries of registered models"
    )
    register_cmd = models_actions.add_parser(
        "register",
        parents=[url_parent],
        help="register a dependency program + base facts as a model",
    )
    register_cmd.add_argument(
        "--deps", required=True, help="dependency file (one per line)"
    )
    register_cmd.add_argument(
        "--facts",
        help="base-fact file: one row per line, space- or comma-separated "
        "constant names (# comments ignored)",
    )
    info_cmd = models_actions.add_parser(
        "info", parents=[url_parent], help="one model's summary"
    )
    info_cmd.add_argument("model_id")
    drop_cmd = models_actions.add_parser(
        "drop", parents=[url_parent], help="forget a model"
    )
    drop_cmd.add_argument("model_id")
    facts_cmd = models_actions.add_parser(
        "facts",
        parents=[url_parent],
        help="insert/delete base facts (incremental re-chase server-side)",
    )
    facts_cmd.add_argument("model_id")
    facts_cmd.add_argument("--insert", help="fact file of rows to insert")
    facts_cmd.add_argument("--delete", help="fact file of rows to delete")
    implies_cmd = models_actions.add_parser(
        "implies",
        parents=[url_parent],
        help="does a dependency hold in the maintained model's core?",
    )
    implies_cmd.add_argument("model_id")
    implies_cmd.add_argument(
        "target", help="target dependency, e.g. 'R(x,y)->R(y,x)'"
    )

    analyze_cmd = commands.add_parser(
        "analyze",
        help="static analysis of a dependency file: fragment, termination "
        "certificate, strata, goal-directed pruning",
    )
    analyze_cmd.add_argument(
        "--deps", required=True, help="dependency file (one per line)"
    )
    analyze_cmd.add_argument(
        "--target",
        help="optional target dependency; also reports the pruned program "
        "an implication query against it would chase",
    )
    analyze_cmd.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )

    classify_cmd = commands.add_parser(
        "classify", help="Main-Theorem classification of a presentation file"
    )
    classify_cmd.add_argument("presentation", help="presentation file")
    classify_cmd.add_argument("--max-word-length", type=int, default=8)
    classify_cmd.add_argument("--max-semigroup-size", type=int, default=5)

    encode_cmd = commands.add_parser(
        "encode", help="show the (D, D0) encoding of a presentation file"
    )
    encode_cmd.add_argument("presentation", help="presentation file")
    encode_cmd.add_argument(
        "--full", action="store_true", help="print every dependency"
    )

    diagram_cmd = commands.add_parser(
        "diagram", help="render a typed dependency's diagram"
    )
    diagram_cmd.add_argument("dependency", help="dependency text")
    diagram_cmd.add_argument("--dot", action="store_true", help="emit Graphviz DOT")

    commands.add_parser("demo", help="one-screen tour of the reduction")
    return parser


def _cmd_infer(args: argparse.Namespace) -> int:
    dependencies = parse_dependency_file(Path(args.deps).read_text())
    schema = dependencies[0].schema if dependencies else None
    target = parse_dependency(args.target, schema)
    report = infer(
        dependencies,
        target,
        semantics=Semantics(args.semantics),
        budget=Budget(max_steps=args.max_steps, max_seconds=args.max_seconds),
    )
    print(report.describe())
    if report.finite_counterexample is not None:
        print("counterexample database:")
        print(report.finite_counterexample.pretty())
    if args.dump_certificate:
        _dump_certificate(report, Path(args.dump_certificate))
        print(f"certificate written to {args.dump_certificate}")
    if report.status is InferenceStatus.PROVED:
        return EXIT_PROVED
    if report.status is InferenceStatus.DISPROVED:
        return EXIT_DISPROVED
    return EXIT_UNKNOWN


def _dump_certificate(report, path: Path) -> None:
    """Serialize whichever certificate the report carries."""
    import json

    from repro.io.json_codec import instance_to_json, trace_to_json

    payload: dict = {"status": report.status.value}
    if report.status is InferenceStatus.PROVED:
        payload["kind"] = "chase-proof"
        payload["trace"] = trace_to_json(report.chase_outcome.chase_result.steps)
    elif report.status is InferenceStatus.DISPROVED:
        payload["kind"] = "finite-counterexample"
        payload["database"] = instance_to_json(report.finite_counterexample)
    else:
        payload["kind"] = "none"
    path.write_text(json.dumps(payload, indent=2))


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.service import InferenceService, JsonLinesStore, ResultCache

    dependencies = parse_dependency_file(Path(args.deps).read_text())
    schema = dependencies[0].schema if dependencies else None
    targets = parse_dependency_file(Path(args.targets).read_text(), schema)
    if not targets:
        # Exit 0 must mean "every target proved", never "nothing checked".
        print(f"error: no targets found in {args.targets}", file=sys.stderr)
        return EXIT_USAGE
    if args.workers < 0:
        print("error: --workers must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    store = JsonLinesStore(Path(args.cache)) if args.cache else None
    with InferenceService(
        cache=ResultCache(store=store), workers=args.workers
    ) as service:
        report = service.run_batch(
            dependencies,
            targets,
            budget=Budget(max_steps=args.max_steps, max_seconds=args.max_seconds),
        )
    print(f"{'#':>4}  {'status':<10} {'source':<6} target")
    for item in report.items:
        source = "cache" if item.from_cache else ("dedup" if item.deduplicated else "chase")
        print(f"{item.index:>4}  {item.outcome.status.value:<10} {source:<6} {targets[item.index]}")
    print()
    print(report.stats.describe())
    print("cache:", service.cache.stats.describe())
    statuses = {item.outcome.status for item in report.items}
    if InferenceStatus.UNKNOWN in statuses:
        return EXIT_UNKNOWN
    if InferenceStatus.DISPROVED in statuses:
        return EXIT_DISPROVED
    return EXIT_PROVED


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import InferenceService, JsonLinesStore, ResultCache
    from repro.service.server import InferenceServer

    if args.workers < 0:
        print("error: --workers must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    if args.max_batch < 1:
        print("error: --max-batch must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if args.max_models < 1:
        print("error: --max-models must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if args.max_queue < 1 or args.drain_timeout < 0 or args.max_restarts < 0:
        print(
            "error: need --max-queue >= 1, --drain-timeout >= 0 and "
            "--max-restarts >= 0",
            file=sys.stderr,
        )
        return EXIT_USAGE
    store = JsonLinesStore(Path(args.cache_path)) if args.cache_path else None
    service = InferenceService(
        cache=ResultCache(store=store),
        workers=args.workers,
        max_restarts=args.max_restarts,
    )
    server = InferenceServer(
        service,
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        default_budget=Budget(
            max_steps=args.max_steps,
            max_rows=args.max_rows,
            max_seconds=args.max_seconds,
        ),
        max_models=args.max_models,
        max_queue=args.max_queue,
        drain_timeout=args.drain_timeout,
    )

    async def _serve() -> None:
        await server.start()
        print(
            f"repro serve: listening on http://{server.host}:{server.port} "
            f"(workers={args.workers}, "
            f"cache={'disk:' + args.cache_path if args.cache_path else 'memory'})",
            flush=True,
        )
        await server.serve_forever()

    try:
        service.warm_up()  # fork workers before the event loop exists
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("repro serve: shutting down")
    finally:
        service.close()
    return EXIT_PROVED


def _fmt_number(value: object) -> str:
    """Counters print as ints, seconds-ish floats with fixed precision."""
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6f}" if abs(value) < 1 else f"{value:.3f}"
    if isinstance(value, (int, float)):
        return str(int(value))
    return str(value)


def _histogram_quantile(
    bounds: Sequence[float], counts: Sequence[int], q: float
) -> str:
    """Estimate the ``q``-quantile of a snapshot histogram sample.

    ``counts`` is the non-cumulative per-bucket form with the +Inf slot
    last (the snapshot JSON shape). The estimate is the upper bound of
    the bucket the quantile falls in — the same resolution Prometheus'
    ``histogram_quantile`` has, minus the interpolation.
    """
    total = sum(counts)
    if total == 0:
        return "-"
    rank = q * total
    cumulative = 0
    for bound, count in zip(bounds, counts):
        cumulative += count
        if cumulative >= rank:
            return f"{bound:g}"
    return f">{bounds[-1]:g}" if bounds else "-"


def _render_stats(payload: dict) -> str:
    """The ``repro stats`` tables for one ``/v1/stats`` payload."""
    lines: list[str] = []

    def section(title: str, mapping: dict) -> None:
        lines.append(f"{title}:")
        for key, value in mapping.items():
            if isinstance(value, dict):
                rendered = ", ".join(
                    f"{k}={_fmt_number(v)}" for k, v in value.items()
                )
                lines.append(f"  {key:<24} {rendered}")
            else:
                lines.append(f"  {key:<24} {_fmt_number(value)}")
        lines.append("")

    section("server", dict(payload.get("server", {})))
    section("cache", dict(payload.get("cache", {})))
    section("batching", dict(payload.get("batching", {})))

    families = payload.get("metrics", {}).get("families", [])
    scalars: list[tuple[str, str]] = []
    histograms: list[tuple[str, int, str, str, str, str]] = []
    for family in families:
        label_names = family.get("labels", [])
        for sample in family.get("samples", []):
            labels = ",".join(
                f'{name}="{value}"'
                for name, value in zip(label_names, sample.get("labels", []))
            )
            series = family["name"] + (f"{{{labels}}}" if labels else "")
            if family.get("kind") == "histogram":
                count = int(sample.get("count", 0))
                mean = (
                    f"{sample.get('value', 0.0) / count:.6f}"
                    if count
                    else "-"
                )
                bounds = family.get("buckets", [])
                counts = sample.get("bucket_counts", [])
                histograms.append(
                    (
                        series,
                        count,
                        mean,
                        _histogram_quantile(bounds, counts, 0.5),
                        _histogram_quantile(bounds, counts, 0.9),
                        _histogram_quantile(bounds, counts, 0.99),
                    )
                )
            else:
                scalars.append((series, _fmt_number(sample.get("value", 0))))
    if scalars:
        width = max(len(name) for name, _ in scalars)
        lines.append("counters & gauges:")
        for name, value in scalars:
            lines.append(f"  {name:<{width}}  {value}")
        lines.append("")
    if histograms:
        width = max(len(name) for name, *_ in histograms)
        lines.append("histograms (bucket-resolution quantiles):")
        header = (
            f"  {'series':<{width}}  {'count':>7} {'mean':>10} "
            f"{'p50':>8} {'p90':>8} {'p99':>8}"
        )
        lines.append(header)
        for name, count, mean, p50, p90, p99 in histograms:
            lines.append(
                f"  {name:<{width}}  {count:>7} {mean:>10} "
                f"{p50:>8} {p90:>8} {p99:>8}"
            )
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def _cmd_stats(args: argparse.Namespace) -> int:
    import time

    from repro.service.client import ServiceClient

    client = ServiceClient(args.url)
    if args.watch:
        if args.watch <= 0:
            print("error: --watch must be positive", file=sys.stderr)
            return EXIT_USAGE
        try:
            while True:
                rendered = _render_stats(client.stats())
                # Clear screen + home, like watch(1).
                print("\033[2J\033[H" + rendered, end="", flush=True)
                time.sleep(args.watch)
        except KeyboardInterrupt:
            print()
        return EXIT_PROVED
    print(_render_stats(client.stats()), end="")
    return EXIT_PROVED


def _parse_fact_rows(text: str) -> list[tuple]:
    """Parse a fact file: one row per line, constant names separated by
    spaces or commas; blank lines and ``#`` comments ignored."""
    from repro.relational.values import Const

    rows: list[tuple] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        rows.append(tuple(Const(token) for token in line.replace(",", " ").split()))
    return rows


def _print_model_summary(info: dict) -> None:
    print(
        f"{info.get('model_id', '?'):<12} rows={info.get('rows', 0):<6} "
        f"base={info.get('base_rows', 0):<6} "
        f"deps={info.get('dependencies', 0):<4} "
        f"status={info.get('status', '?')}"
    )


def _cmd_models(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    client = ServiceClient(args.url)
    if args.action == "list":
        answer = client.models()
        models = answer.get("models", [])
        if not models:
            print("no models registered")
        for info in models:
            _print_model_summary(info)
        print(
            f"({len(models)}/{answer.get('max_models', '?')} slots, "
            f"{answer.get('evictions', 0)} evictions)"
        )
        return EXIT_PROVED
    if args.action == "register":
        dependencies = parse_dependency_file(Path(args.deps).read_text())
        if not dependencies:
            print(f"error: no dependencies in {args.deps}", file=sys.stderr)
            return EXIT_USAGE
        rows = (
            _parse_fact_rows(Path(args.facts).read_text())
            if args.facts
            else []
        )
        answer = client.register_model(
            dependencies[0].schema, dependencies, rows
        )
        report = answer.get("report", {})
        print(
            f"registered {answer.get('model_id')}: "
            f"{report.get('applied', 0)} base facts, "
            f"{report.get('derived', 0)} derived rows, "
            f"status {report.get('status', '?')}"
        )
        return EXIT_PROVED
    if args.action == "info":
        _print_model_summary(client.model_info(args.model_id))
        return EXIT_PROVED
    if args.action == "drop":
        client.drop_model(args.model_id)
        print(f"dropped {args.model_id}")
        return EXIT_PROVED
    if args.action == "facts":
        insert = (
            _parse_fact_rows(Path(args.insert).read_text())
            if args.insert
            else []
        )
        delete = (
            _parse_fact_rows(Path(args.delete).read_text())
            if args.delete
            else []
        )
        if not insert and not delete:
            print("error: give --insert and/or --delete", file=sys.stderr)
            return EXIT_USAGE
        answer = client.model_facts(args.model_id, insert=insert, delete=delete)
        for report in answer.get("reports", []):
            print(
                f"{report.get('op')}: applied={report.get('applied', 0)} "
                f"derived={report.get('derived', 0)} "
                f"overdeleted={report.get('overdeleted', 0)} "
                f"status={report.get('status', '?')}"
            )
        _print_model_summary(answer.get("model", {}))
        return EXIT_PROVED
    # implies: three-valued exit code discipline like `infer` (the
    # maintained-model check is two-valued — the model is materialized).
    target = parse_dependency(args.target)
    implied = client.model_implies(args.model_id, target)
    print(f"{'implied' if implied else 'not implied'}: {target}")
    return EXIT_PROVED if implied else EXIT_DISPROVED


def _cmd_analyze(args: argparse.Namespace) -> int:
    import json

    from repro.analysis import prune_for_target
    from repro.chase.implication import _freeze_target

    dependencies = parse_dependency_file(Path(args.deps).read_text())
    schema = dependencies[0].schema if dependencies else None
    target = (
        parse_dependency(args.target, schema)
        if args.target is not None
        else None
    )
    program = prune_for_target(tuple(dependencies))
    report = program.report
    derived = None
    if program.certificate is not None and target is not None:
        start, __ = _freeze_target(target)
        derived = program.certificate.derived_budget(
            len(start.active_domain()), len(start)
        )
    if args.json:
        payload = program.provenance(
            applied=derived is not None, derived=derived
        )
        payload["position_count"] = report.position_count
        payload["regular_edges"] = report.regular_edge_count
        payload["special_edges"] = report.special_edge_count
        payload["weakly_acyclic"] = report.weakly_acyclic
        payload["jointly_acyclic"] = report.jointly_acyclic
        print(json.dumps(payload, indent=2))
    else:
        attributes = list(schema.attributes) if schema is not None else None
        print(report.describe(attributes))
        if program.dropped:
            print("pruned for implication queries:")
            for entry in program.dropped:
                print(f"  - {entry.name}: {entry.reason}")
        if derived is not None:
            print(
                "derived budget vs "
                f"{args.target!r}: max_steps={derived.max_steps} "
                f"max_rows={derived.max_rows} (decisive verdict guaranteed)"
            )
    return EXIT_PROVED if report.certified else EXIT_UNKNOWN


def _cmd_classify(args: argparse.Namespace) -> int:
    presentation = parse_presentation_text(Path(args.presentation).read_text())
    outcome = classify_instance(
        presentation,
        max_word_length=args.max_word_length,
        max_semigroup_size=args.max_semigroup_size,
    )
    print(outcome.describe())
    if outcome.instance_class is InstanceClass.A0_COLLAPSES:
        print("derivation:", outcome.direction_a.derivation.describe())
        return EXIT_PROVED
    if outcome.instance_class is InstanceClass.FINITELY_REFUTABLE:
        print("counter-model:", outcome.direction_b.counter_model.describe())
        return EXIT_DISPROVED
    return EXIT_UNKNOWN


def _cmd_encode(args: argparse.Namespace) -> int:
    presentation = parse_presentation_text(Path(args.presentation).read_text())
    encoding = encode(presentation)
    print(encoding.describe())
    if args.full:
        print()
        for dependency in encoding.dependencies:
            print(f"{dependency.name}: {dependency}")
        print(f"{encoding.d0.name}: {encoding.d0}")
    return EXIT_PROVED


def _cmd_diagram(args: argparse.Namespace) -> int:
    dependency = parse_dependency(args.dependency)
    diagram = diagram_of(dependency)  # raises TypingError when untyped
    if args.dot:
        print(render_dot(diagram, dependency.name or "dependency"))
    else:
        print(render_ascii(diagram, str(dependency)))
    return EXIT_PROVED


def _cmd_demo(__args: argparse.Namespace) -> int:
    from repro.reduction.theorem import prove_direction_a, prove_direction_b
    from repro.workloads.instances import (
        gap_instance,
        negative_instance,
        positive_instance,
    )

    print("Gurevich & Lewis (1982), both directions, machine-verified:")
    print()
    report_a = prove_direction_a(positive_instance())
    print("positive instance:", report_a.describe())
    report_b = prove_direction_b(negative_instance())
    print("negative instance:", report_b.describe())
    outcome = classify_instance(gap_instance(), max_semigroup_size=4)
    print("gap instance:     ", outcome.describe())
    return EXIT_PROVED


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "infer": _cmd_infer,
        "batch": _cmd_batch,
        "serve": _cmd_serve,
        "stats": _cmd_stats,
        "models": _cmd_models,
        "analyze": _cmd_analyze,
        "classify": _cmd_classify,
        "encode": _cmd_encode,
        "diagram": _cmd_diagram,
        "demo": _cmd_demo,
    }
    try:
        return handlers[args.command](args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

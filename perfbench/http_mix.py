"""``http_mix``: mixed traffic against a ``repro serve --workers 1`` process.

One generator (this process) drives the server over at most ``nproc``
(two) connections. Traffic comes in blocks of ``BLOCK`` requests:

* ``/v1/implies`` against the diverging {transitivity, successor}
  premise set: *path* targets (a chain with random forward chords,
  conclusion from its first node to its last; entailed, so PROVED or
  UNKNOWN but never DISPROVED) and *backward-edge* targets (conclusion
  against the chain's direction; not entailed, and the successor rule
  keeps the chase from terminating, so UNKNOWN after the whole budget,
  never PROVED);
* disguised duplicates of earlier targets of both kinds;
* about 20% maintained-model traffic on one registered E16-style
  model: fact inserts and deletes, and conjunctive queries.

Whichever connection is free sends the next request; model operations
go out one at a time, in stream order. The run has two phases.
The *steady* phase is an open loop at ``RATE`` requests/s: each request
is due at a fixed time, its latency is measured from that due time, and
how late the generator sent it is recorded. The *saturation* phase
drives the same stream closed-loop, as fast as the server answers, and
gives ``throughput_qps``. After the stream, outside timing, the
maintained model must be homomorphically equivalent to a fresh chase of
its final base facts, as E16 checks.
"""

from __future__ import annotations

import json
import os
import itertools
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import (
    DISPROVED,
    OUT_DIR,
    PROVED,
    Tally,
    log,
    percentile,
    process_peak_rss_mb,
    transitively_entailed,
    verdict_is_wrong,
)

BLOCK = 20
#: Per block: implies requests of each kind, and model operations.
PATHS, BACKWARD, DUPLICATES = 5, 5, 6
MODEL_OPS = ("insert", "delete", "query", "query")
#: Step budget of every implies request; a backward edge spends all of it.
MAX_STEPS = 50
#: Steady-phase offered load (requests/s) and its share of the run.
#: The steady-phase p99 is made of the server's full garbage
#: collections, which come at fixed points of the request stream and
#: grow with its cache (to about 230 ms by the end of a 35 s run). At
#: 40 requests/s a 35 s run's steady phase (31.85 s) ends about midway
#: between the seventh and the eighth, so every run holds the same seven
#: collections; a steady phase that ended near one (as at 27 s) held it
#: in some runs and not in others, and its p99 spread by 0.3.
RATE = 40.0
STEADY_SHARE = 0.91
#: A steady-phase request answered correctly within this counts in slo_share.
SLO_SECONDS = 0.250
#: Completed requests per saturation-phase throughput segment.
SEGMENT_REQUESTS = 50
#: Model: E16's program and a base of BASE_ROWS rows over 7 constants/column.
BASE_ROWS = 40
ROWS_PER_OP = 2
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: One part per run: the server, its cache and its heap live for the
#: whole run, as in a deployment. Set-up is repeated ``SETUP_BOOTS``
#: times (boot, pool warm-up, model registration); the last server stays.
PARTS = 1
SETUP_BOOTS = 3
#: Seconds a server may take to shut down gracefully before it is killed.
STOP_SECONDS = 30


def _premises():
    from repro.dependencies.parser import parse_td

    return [
        parse_td("R(x, y) & R(y, z) -> R(x, z)"),
        parse_td("R(x, y) -> R(y, x2)"),
    ]


def _model_program():
    from repro.workloads.generators import weakly_acyclic_dependencies

    dependencies = weakly_acyclic_dependencies(count=4, arity=3, include_eids=True, seed=3)
    return dependencies[0].schema, dependencies


def _chain_target(rng: random.Random, backward: bool):
    from repro.dependencies.template import TemplateDependency, Variable
    from repro.relational.schema import Schema

    length = rng.randrange(3, 9)
    nodes = [Variable(f"a{index}") for index in range(length + 1)]
    edges = [(nodes[index], nodes[index + 1]) for index in range(length)]
    for __ in range(rng.randrange(0, 3)):
        low, high = sorted(rng.sample(range(length + 1), 2))
        edges.append((nodes[low], nodes[high]))
    if backward:
        source = rng.randrange(1, length + 1)
        conclusion = (nodes[source], nodes[rng.randrange(source)])
    else:
        conclusion = (nodes[0], nodes[length])
    return TemplateDependency(Schema(["FROM", "TO"]), edges, conclusion)


class Stream:
    """The seeded request stream, generated block by block.

    Each request is ``(kind, path, payload, detail)``: ``detail`` is the
    ground-truth entailment of an implies request and the rows of a fact
    insert or delete. Rows to insert are drawn from those absent from
    the model's base as generated so far, rows to delete from those
    present.
    """

    def __init__(self, seed: str, schema, universe, base):
        from repro.chase.budget import Budget
        from repro.io.json_codec import budget_to_json, dependency_to_json

        self.rng = random.Random(seed)
        self.schema = schema
        self.universe = universe
        self.base = set(base)
        self.premises = [dependency_to_json(d) for d in _premises()]
        self.budget = budget_to_json(Budget(max_steps=MAX_STEPS, max_rows=50_000, max_seconds=None))
        self.sent: dict[bool, list] = {True: [], False: []}
        self.pending: list = []

    def __iter__(self):
        return self

    def __next__(self):
        if not self.pending:
            self.pending = self._block()
        return self.pending.pop(0)

    def _implies(self, target):
        from repro.io.json_codec import dependency_to_json

        payload = {
            "dependencies": self.premises,
            "target": dependency_to_json(target),
            "budget": self.budget,
            "certificates": False,
        }
        return ("implies", "/v1/implies", payload, transitively_entailed(target))

    def _model_op(self, kind: str):
        from repro.io.json_codec import cq_to_json, rows_to_json
        from repro.workloads.generators import random_cq

        if kind == "query":
            query = random_cq(
                arity=3, body_atoms=2, seed=self.rng.randrange(1 << 30), schema=self.schema
            )
            return ("query", "/query", {"query": cq_to_json(query)}, ())
        if kind == "insert":
            absent = [row for row in self.universe if row not in self.base]
            rows = self.rng.sample(absent, ROWS_PER_OP)
            self.base.update(rows)
        else:
            rows = self.rng.sample(sorted(self.base, key=repr), ROWS_PER_OP)
            self.base.difference_update(rows)
        return (kind, "/facts", {kind: rows_to_json(rows)}, rows)

    def _block(self) -> list:
        from repro.workloads.generators import disguise

        rng = self.rng
        implies = []
        for backward, count in ((False, PATHS), (True, BACKWARD)):
            for __ in range(count):
                target = _chain_target(rng, backward)
                self.sent[backward].append(target)
                implies.append(self._implies(target))
        for number in range(DUPLICATES):
            backward = bool(number % 2)
            original = rng.choice(self.sent[backward])
            implies.append(self._implies(disguise(original, seed=rng.randrange(1 << 30), tag="q")))
        rng.shuffle(implies)
        model_slots = set(rng.sample(range(BLOCK), len(MODEL_OPS)))
        operations = list(MODEL_OPS)
        rng.shuffle(operations)
        block = []
        for slot in range(BLOCK):
            if slot in model_slots:
                block.append(self._model_op(operations.pop()))
            else:
                block.append(implies.pop())
        return block


class Server:
    """One benchmark-wrapped ``repro serve`` child process."""

    def __init__(self, dump_path: Path):
        self.dump_path = dump_path
        environment = dict(os.environ)
        environment.pop("PYTHONPATH", None)
        self.process = subprocess.Popen(
            [
                sys.executable,
                str(Path(__file__).resolve().parent / "serve.py"),
                "--dump",
                str(dump_path),
                "--",
                "--port",
                "0",
                "--workers",
                "1",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=environment,
            # Its own process group: the server, its forkserver and its
            # worker can be stopped together.
            start_new_session=True,
        )
        self.base_url = ""
        for line in self.process.stdout:
            if "listening on http://" in line:
                self.base_url = line.split("listening on ", 1)[1].split()[0]
                break
        if not self.base_url:
            self.process.wait(timeout=30)
            raise RuntimeError("repro serve did not start")
        self._drain = threading.Thread(target=self._drain_stdout, daemon=True)
        self._drain.start()

    def _drain_stdout(self) -> None:
        for __ in self.process.stdout:
            pass

    def stop(self, graceful: bool = True) -> dict:
        """Stop the server and its workers; return its dump.

        Graceful is SIGINT, the CLI's shutdown path, after which the
        server writes its dump; a server that has not exited within
        ``STOP_SECONDS`` is killed. Either way the whole process group
        is killed last, so no forkserver or worker outlives the run.
        """
        if self.process.poll() is None and graceful:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=STOP_SECONDS)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait(timeout=30)
        self._drain.join(timeout=10)
        if graceful and self.dump_path.exists():
            return json.loads(self.dump_path.read_text())
        return {}


def _send(client, request, model_id: str):
    """One request; returns (status, error, trace id)."""
    from repro.service.client import ServiceError

    kind, path, payload, __ = request
    if kind != "implies":
        path = f"/v1/models/{model_id}{path}"
    try:
        answer = client.request("POST", path, payload)
    except ServiceError as error:
        return None, f"{kind}: {error}", ""
    if kind == "implies":
        return answer.get("status"), None, answer.get("trace_id", "")
    return "ok", None, ""


class Judge:
    """Checks each answer against the stream's ground truth."""

    def __init__(self, tally: Tally, flip: bool):
        self.tally = tally
        self.flip = flip

    def __call__(self, request, status, error) -> bool:
        tally = self.tally
        if error is not None:
            tally.failure(error)
            return False
        kind, __, __, entailed = request
        if kind != "implies":
            tally.operations += 1
            return True
        if self.flip and status in (PROVED, DISPROVED):
            entailed, self.flip = not entailed, False  # self-test: a wrong answer key
        return tally.verdict(status, verdict_is_wrong(status, entailed))


def _drive(base_url: str, requests: list, model_id: str, rate=None, seconds=None) -> list:
    """Send ``requests`` over ``CONNECTIONS`` connections.

    Open loop when ``rate`` is given: request ``i`` is due ``i / rate``
    s after the start and its latency is timed from that due time.
    Closed loop otherwise, until ``seconds`` have passed. Whichever
    connection is free takes the next request; model operations go out
    one at a time in stream order, so the served model sees the
    stream's inserts and deletes in order. Returns, per request,
    ``(latency, lateness, status, error, trace id, done at)``, or None
    for a request never sent.
    """
    from repro.service.client import ServiceClient

    results: list = [None] * len(requests)
    model_turn = {}
    for index, request in enumerate(requests):
        if request[0] != "implies":
            model_turn[index] = len(model_turn)
    turn = threading.Condition()
    model_done = [0]
    claims = itertools.count()  # next() on a count is atomic in CPython
    start = time.perf_counter() + 0.05
    deadline = start + seconds if seconds is not None else None

    def sender() -> None:
        client = ServiceClient(base_url)
        for index in claims:
            if index >= len(requests):
                return
            if rate is not None:
                due = start + index / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            mine = model_turn.get(index)
            if mine is not None:
                with turn:
                    turn.wait_for(lambda: model_done[0] == mine)
            try:
                if deadline is not None and time.perf_counter() >= deadline:
                    return  # a claimed model op still passes its turn on
                sent = time.perf_counter()
                status, error, trace_id = _send(client, requests[index], model_id)
                done = time.perf_counter()
            finally:
                if mine is not None:
                    with turn:
                        model_done[0] += 1
                        turn.notify_all()
            if rate is None:
                due = sent
            results[index] = (done - due, sent - due, status, error, trace_id, done - start)

    lanes = [threading.Thread(target=sender) for __ in range(CONNECTIONS)]
    for lane in lanes:
        lane.start()
    for lane in lanes:
        lane.join()
    return results


def parse_metrics(text: str) -> dict:
    """Prometheus text exposition -> {(name, labels): value}."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        head, __, value = line.rpartition(" ")
        name, __, labels = head.partition("{")
        samples[(name, labels.rstrip("}"))] = float(value)
    return samples


def _model_equivalent(dump: dict, schema, program, base: set) -> str:
    """Empty when the served model matches a fresh chase of ``base``."""
    from repro.chase.budget import Budget
    from repro.chase.engine import chase
    from repro.io.json_codec import instance_from_json, rows_from_json
    from repro.relational.core import homomorphically_equivalent
    from repro.relational.instance import Instance

    models = dump.get("models", {})
    if len(models) != 1:
        return f"expected one model in the server dump, found {len(models)}"
    (model,) = models.values()
    if set(rows_from_json(model["base"])) != base:
        return "the served model's base facts differ from the facts sent"
    fresh = chase(Instance(schema, base), program, budget=Budget.unlimited(), record_trace=False)
    if not homomorphically_equivalent(instance_from_json(model["instance"]), fresh.instance):
        return "the maintained model is not equivalent to a fresh chase of its base"
    return ""


def run(seed: int, part: int, seconds: float, trace: bool = False, flip: bool = False) -> dict:
    from repro.service.client import ServiceClient
    from repro.workloads.generators import random_instance

    stream_seed = f"{seed}-{part}"
    schema, program = _model_program()
    universe = sorted(
        set(random_instance(seed=seed, rows=2000, arity=3, constants_per_column=7, schema=schema).rows),
        key=repr,
    )
    random.Random(stream_seed).shuffle(universe)
    base = universe[:BASE_ROWS]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    servers: list[Server] = []
    try:
        boots = []
        for boot in range(SETUP_BOOTS):
            started = time.perf_counter()
            server = Server(OUT_DIR / f"http_mix-{os.getpid()}-{boot}.dump.json")
            servers.append(server)
            client = ServiceClient(server.base_url)
            model_id = client.register_model(schema, program, base)["model_id"]
            boots.append(time.perf_counter() - started)
            if boot + 1 < SETUP_BOOTS:
                server.stop(graceful=False)  # only the set-up time was wanted
        return _measure(
            stream_seed, seconds, trace, flip, server, client, model_id,
            schema, program, universe, base, boots,
        )
    finally:
        for server in servers:
            server.stop()
            server.dump_path.unlink(missing_ok=True)


def _measure(
    stream_seed, seconds, trace, flip, server, client, model_id, schema, program, universe, base, boots
):
    stream = Stream(stream_seed, schema, universe, base)
    steady_requests = [next(stream) for __ in range(int(seconds * STEADY_SHARE * RATE))]
    saturation_seconds = seconds * (1.0 - STEADY_SHARE)
    saturation_requests = [next(stream) for __ in range(int(saturation_seconds * 400))]
    before = parse_metrics(client.metrics_text())
    stats_before = client.stats()["server"]

    steady = _drive(server.base_url, steady_requests, model_id, rate=RATE)
    saturation = _drive(server.base_url, saturation_requests, model_id, seconds=saturation_seconds)

    after = parse_metrics(client.metrics_text())
    stats_after = client.stats()["server"]
    tally = Tally(SLO_SECONDS)
    judge = Judge(tally, flip)
    lateness = []
    for request, (latency, late, status, error, __, __) in zip(steady_requests, steady):
        tally.unit(latency, judge(request, status, error))
        lateness.append(late)
    client_seconds = sum(entry[0] for entry in steady)
    implies_requests = sum(request[0] == "implies" for request in steady_requests)
    completions, sampled = [], []
    for request, result in zip(saturation_requests, saturation):
        if result is None:
            continue
        latency, __, status, error, trace_id, done_at = result
        judge(request, status, error)
        completions.append(done_at)
        client_seconds += latency
        implies_requests += request[0] == "implies"
        if trace_id:
            sampled.append((trace_id, latency))
    completions.sort()
    size = max(1, min(SEGMENT_REQUESTS, len(completions) // 2))
    segments = [
        size / (completions[end] - completions[end - size])
        for end in range(size, len(completions), size)
    ] or [len(completions) / saturation_seconds]  # too few answers to segment
    if len(completions) >= len(saturation_requests) - CONNECTIONS:
        log("perfbench: warning: the saturation phase ran out of requests")

    traces = []
    if trace:
        for trace_id, latency in sampled[-200:]:
            traces.append((client.trace(trace_id), latency))
    rss_mb = process_peak_rss_mb(server.process.pid)
    dump = server.stop()
    final_base = set(base)
    for request, result in zip(steady_requests + saturation_requests, steady + saturation):
        if result is None or result[3] is not None:
            continue  # never sent, or failed (and counted as failed)
        if request[0] == "insert":
            final_base.update(request[3])
        elif request[0] == "delete":
            final_base.difference_update(request[3])
    problem = _model_equivalent(dump, schema, program, final_base)
    if problem:
        tally.errors.append(problem)
        tally.wrong += 1
    ordered_late = sorted(lateness)
    return {
        "tally": tally,
        "segments": segments,
        "setup_s": boots,
        "rss_mb": rss_mb,
        "units": len(steady),
        "http": {
            "before": before,
            "after": after,
            "stats_before": stats_before,
            "stats_after": stats_after,
            "traces": traces,
            "pool_start_s": dump.get("pool_start_s", []),
            "requests": len(steady) + len(completions),
            "implies_requests": implies_requests,
            "client_seconds": client_seconds,
        },
        "attributes": {
            "offered_rate": RATE,
            "connections": CONNECTIONS,
            "max_steps": MAX_STEPS,
            "lateness_p50_ms": percentile(ordered_late, 0.5) * 1000.0,
            "lateness_p99_ms": percentile(ordered_late, 0.99) * 1000.0,
            "saturation_completed": len(completions),
            "model_equivalent": not problem,
        },
    }

"""JSON round-tripping for the library's core objects.

Everything the solvers produce — including the *certificates* (chase
traces and counterexample databases) — can be serialized, so a sceptical
reader can store a proof and re-verify it in a fresh process. The format
is plain ``json``-module-compatible dicts; every entry point has a
``*_to_json`` / ``*_from_json`` pair, and round-tripping is exact
(property-tested).

Value encoding: constants may carry structured names (tuples, nested
values — the direct product and the reduction use them), so names are
encoded recursively with one-letter tags: ``{"s": ...}`` scalar,
``{"t": [...]}`` tuple, ``{"v": ...}`` nested value.
"""

from __future__ import annotations

import os
from typing import Union

from repro.dependencies.eid import EmbeddedImplicationalDependency
from repro.dependencies.template import TemplateDependency, Variable
from repro.errors import ReproError
from repro.chase.budget import Budget, ChaseStats
from repro.chase.checkpoint import CHECKPOINT_VERSION, ChaseCheckpoint
from repro.chase.plan import Suspension
from repro.chase.implication import InferenceOutcome, InferenceStatus
from repro.chase.result import ChaseResult, ChaseStatus, ChaseStep
from repro.obs.metrics import MetricsSnapshot
from repro.relational.instance import Instance
from repro.relational.queries import ConjunctiveQuery
from repro.relational.schema import Schema
from repro.relational.values import Const, LabeledNull, Value
from repro.semigroups.finite import FiniteSemigroup
from repro.semigroups.presentation import Equation, Presentation

Json = Union[dict, list, str, int, float, bool, None]


class CodecError(ReproError):
    """Malformed JSON payload for one of the codecs."""


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

def _name_to_json(name: object) -> Json:
    if isinstance(name, (str, int, float, bool)) or name is None:
        return {"s": name}
    if isinstance(name, tuple):
        return {"t": [_name_to_json(part) for part in name]}
    if isinstance(name, (Const, LabeledNull)):
        return {"v": value_to_json(name)}
    raise CodecError(f"cannot encode constant name {name!r}")


def _name_from_json(payload: Json) -> object:
    if not isinstance(payload, dict) or len(payload) != 1:
        raise CodecError(f"bad name payload {payload!r}")
    if "s" in payload:
        return payload["s"]
    if "t" in payload:
        return tuple(_name_from_json(part) for part in payload["t"])
    if "v" in payload:
        return value_from_json(payload["v"])
    raise CodecError(f"bad name payload {payload!r}")


def value_to_json(value: Value) -> Json:
    """Encode a constant or labelled null."""
    if isinstance(value, Const):
        return {"const": _name_to_json(value.name)}
    if isinstance(value, LabeledNull):
        return {"null": value.label}
    raise CodecError(f"cannot encode value {value!r}")


def value_from_json(payload: Json) -> Value:
    """Decode a constant or labelled null."""
    if isinstance(payload, dict) and "const" in payload:
        return Const(_name_from_json(payload["const"]))
    if isinstance(payload, dict) and "null" in payload:
        return LabeledNull(int(payload["null"]))
    raise CodecError(f"bad value payload {payload!r}")


# ---------------------------------------------------------------------------
# Schemas and instances
# ---------------------------------------------------------------------------

def schema_to_json(schema: Schema) -> Json:
    """Encode a schema as its attribute list."""
    return list(schema.attributes)


def schema_from_json(payload: Json) -> Schema:
    """Decode a schema."""
    if not isinstance(payload, list):
        raise CodecError("schema payload must be a list of attribute names")
    return Schema(payload)


def instance_to_json(instance: Instance) -> Json:
    """Encode a database instance (schema + rows)."""
    return {
        "schema": schema_to_json(instance.schema),
        "rows": [
            [value_to_json(value) for value in row]
            for row in sorted(instance.rows, key=repr)
        ],
    }


def instance_from_json(payload: Json) -> Instance:
    """Decode a database instance."""
    if not isinstance(payload, dict) or "schema" not in payload:
        raise CodecError("instance payload needs 'schema' and 'rows'")
    schema = schema_from_json(payload["schema"])
    rows = [
        tuple(value_from_json(value) for value in row)
        for row in payload.get("rows", [])
    ]
    return Instance(schema, rows)


# ---------------------------------------------------------------------------
# Dependencies
# ---------------------------------------------------------------------------

def _atom_to_json(atom) -> list[str]:
    return [variable.name for variable in atom]


def _atom_from_json(payload) -> tuple[Variable, ...]:
    return tuple(Variable(name) for name in payload)


def dependency_to_json(
    dependency: Union[TemplateDependency, EmbeddedImplicationalDependency],
) -> Json:
    """Encode a TD or EID."""
    return {
        "kind": "td" if isinstance(dependency, TemplateDependency) else "eid",
        "schema": schema_to_json(dependency.schema),
        "antecedents": [_atom_to_json(atom) for atom in dependency.antecedents],
        "conclusions": [_atom_to_json(atom) for atom in dependency.conclusions],
        "name": dependency.name,
    }


def dependency_from_json(
    payload: Json,
) -> Union[TemplateDependency, EmbeddedImplicationalDependency]:
    """Decode a TD or EID."""
    if not isinstance(payload, dict) or "kind" not in payload:
        raise CodecError("dependency payload needs a 'kind'")
    schema = schema_from_json(payload["schema"])
    antecedents = [_atom_from_json(atom) for atom in payload["antecedents"]]
    conclusions = [_atom_from_json(atom) for atom in payload["conclusions"]]
    name = payload.get("name")
    if payload["kind"] == "td":
        if len(conclusions) != 1:
            raise CodecError("a TD payload must have exactly one conclusion atom")
        return TemplateDependency(schema, antecedents, conclusions[0], name=name)
    if payload["kind"] == "eid":
        return EmbeddedImplicationalDependency(
            schema, antecedents, conclusions, name=name
        )
    raise CodecError(f"unknown dependency kind {payload['kind']!r}")


# ---------------------------------------------------------------------------
# Rows and conjunctive queries (the maintained-model wire format)
# ---------------------------------------------------------------------------

def rows_to_json(rows) -> Json:
    """Encode a collection of rows (sorted for a canonical payload)."""
    return [
        [value_to_json(value) for value in row]
        for row in sorted(rows, key=repr)
    ]


def rows_from_json(payload: Json) -> list[tuple]:
    """Decode a list of rows (arity is checked downstream, on insert)."""
    if not isinstance(payload, list):
        raise CodecError("rows payload must be a list of rows")
    return [
        tuple(value_from_json(value) for value in row) for row in payload
    ]


def cq_to_json(query: ConjunctiveQuery) -> Json:
    """Encode a conjunctive query (schema, head variables, body atoms)."""
    return {
        "schema": schema_to_json(query.schema),
        "head": [variable.name for variable in query.head],
        "body": [_atom_to_json(atom) for atom in query.body],
        "name": query.name,
    }


def cq_from_json(payload: Json) -> ConjunctiveQuery:
    """Decode a conjunctive query (well-formedness re-checked)."""
    if not isinstance(payload, dict) or "body" not in payload:
        raise CodecError("query payload needs 'schema', 'head' and 'body'")
    schema = schema_from_json(payload.get("schema", []))
    head = tuple(Variable(name) for name in payload.get("head", []))
    body = [_atom_from_json(atom) for atom in payload["body"]]
    try:
        return ConjunctiveQuery(schema, head, body, name=payload.get("name"))
    except ReproError as error:
        raise CodecError(f"bad query payload: {error}") from error


# ---------------------------------------------------------------------------
# Presentations and finite semigroups
# ---------------------------------------------------------------------------

def presentation_to_json(presentation: Presentation) -> Json:
    """Encode a presentation."""
    return {
        "alphabet": list(presentation.alphabet),
        "equations": [
            {"lhs": list(equation.lhs), "rhs": list(equation.rhs)}
            for equation in presentation.equations
        ],
        "zero": presentation.zero,
        "a0": presentation.a0,
    }


def presentation_from_json(payload: Json) -> Presentation:
    """Decode a presentation."""
    if not isinstance(payload, dict) or "alphabet" not in payload:
        raise CodecError("presentation payload needs an 'alphabet'")
    equations = [
        Equation(tuple(entry["lhs"]), tuple(entry["rhs"]))
        for entry in payload.get("equations", [])
    ]
    return Presentation(
        payload["alphabet"],
        equations,
        zero=payload.get("zero", "0"),
        a0=payload.get("a0", "A0"),
    )


def semigroup_to_json(semigroup: FiniteSemigroup) -> Json:
    """Encode a finite semigroup (Cayley table + names)."""
    return {
        "table": semigroup.table.tolist(),
        "names": list(semigroup.names),
    }


def semigroup_from_json(payload: Json) -> FiniteSemigroup:
    """Decode a finite semigroup (associativity re-checked)."""
    if not isinstance(payload, dict) or "table" not in payload:
        raise CodecError("semigroup payload needs a 'table'")
    return FiniteSemigroup(payload["table"], payload.get("names"))


# ---------------------------------------------------------------------------
# Chase traces (certificates)
# ---------------------------------------------------------------------------

def trace_to_json(steps: list[ChaseStep]) -> Json:
    """Encode a chase trace against a shared dependency registry.

    Dependencies are deduplicated into a registry; steps refer to them by
    index, so large traces stay compact.
    """
    registry: list = []
    index_of: dict = {}
    encoded_steps = []
    for step in steps:
        key = step.dependency
        if key not in index_of:
            index_of[key] = len(registry)
            registry.append(dependency_to_json(key))
        encoded_steps.append(
            {
                "dependency": index_of[key],
                "bindings": [
                    [name, value_to_json(value)] for name, value in step.bindings
                ],
                "added_rows": [
                    [value_to_json(value) for value in row]
                    for row in step.added_rows
                ],
            }
        )
    return {"dependencies": registry, "steps": encoded_steps}


def trace_from_json(payload: Json) -> list[ChaseStep]:
    """Decode a chase trace."""
    if not isinstance(payload, dict) or "steps" not in payload:
        raise CodecError("trace payload needs 'dependencies' and 'steps'")
    registry = [dependency_from_json(entry) for entry in payload["dependencies"]]
    steps = []
    for entry in payload["steps"]:
        dependency = registry[entry["dependency"]]
        bindings = tuple(
            (name, value_from_json(value)) for name, value in entry["bindings"]
        )
        added_rows = tuple(
            tuple(value_from_json(value) for value in row)
            for row in entry["added_rows"]
        )
        steps.append(
            ChaseStep(dependency=dependency, bindings=bindings, added_rows=added_rows)
        )
    return steps


# ---------------------------------------------------------------------------
# Budgets, chase results and inference outcomes
# ---------------------------------------------------------------------------

def budget_to_json(budget: Budget) -> Json:
    """Encode a budget (``None`` axes mean unlimited)."""
    return {
        "max_steps": budget.max_steps,
        "max_rows": budget.max_rows,
        "max_seconds": budget.max_seconds,
    }


def budget_from_json(payload: Json) -> Budget:
    """Decode a budget.

    Each axis must be null (unlimited) or a non-negative number, and
    ``max_steps``/``max_rows`` an integer: anything else raises
    :class:`CodecError`, which the HTTP server answers with 400.
    """
    if not isinstance(payload, dict):
        raise CodecError(f"bad budget payload {payload!r}")
    axes = {}
    for axis, kind in (("max_steps", int), ("max_rows", int), ("max_seconds", (int, float))):
        value = payload.get(axis)
        if value is not None and (
            isinstance(value, bool)
            or not isinstance(value, kind)
            or not value >= 0
        ):
            raise CodecError(f"bad budget {axis} {value!r}")
        axes[axis] = value
    return Budget(**axes)


def stats_to_json(stats: ChaseStats) -> Json:
    """Encode run statistics, freezing the elapsed wall-clock time."""
    return {
        "budget": budget_to_json(stats.budget),
        "steps": stats.steps,
        "rows_added": stats.rows_added,
        "elapsed_seconds": stats.elapsed_seconds,
    }


def stats_from_json(payload: Json) -> ChaseStats:
    """Decode run statistics (the clock is pinned to the recorded elapsed)."""
    if not isinstance(payload, dict) or "budget" not in payload:
        raise CodecError(f"bad stats payload {payload!r}")
    return ChaseStats(
        budget=budget_from_json(payload["budget"]),
        steps=int(payload.get("steps", 0)),
        rows_added=int(payload.get("rows_added", 0)),
        frozen_elapsed=float(payload.get("elapsed_seconds", 0.0)),
    )


def chase_result_to_json(result: ChaseResult) -> Json:
    """Encode a full chase result (status, instance, trace, stats)."""
    payload: dict = {
        "status": result.status.value,
        "instance": instance_to_json(result.instance),
        "trace": trace_to_json(result.steps),
    }
    if result.stats is not None:
        payload["stats"] = stats_to_json(result.stats)
    return payload


def chase_result_from_json(payload: Json) -> ChaseResult:
    """Decode a chase result."""
    if (
        not isinstance(payload, dict)
        or "status" not in payload
        or "instance" not in payload
    ):
        raise CodecError("chase result payload needs 'status' and 'instance'")
    stats = payload.get("stats")
    return ChaseResult(
        status=ChaseStatus(payload["status"]),
        instance=instance_from_json(payload["instance"]),
        steps=trace_from_json(payload.get("trace", {"dependencies": [], "steps": []})),
        stats=stats_from_json(stats) if stats is not None else None,
    )


def outcome_to_json(outcome: InferenceOutcome) -> Json:
    """Encode one ``D ⊨ d`` outcome with all its certificates.

    The payload is self-contained: a PROVED trace can be replayed (the
    chase start is the freezing of the target, reconstructable from the
    encoded target and frozen assignment) and a DISPROVED counterexample
    re-checked, in a fresh process that never saw the original run.
    """
    payload: dict = {
        "status": outcome.status.value,
        "target": dependency_to_json(outcome.target),
    }
    if outcome.chase_result is not None:
        payload["chase_result"] = chase_result_to_json(outcome.chase_result)
    if outcome.counterexample is not None:
        if (
            outcome.chase_result is not None
            and outcome.counterexample == outcome.chase_result.instance
        ):
            # The usual DISPROVED case: the counterexample *is* the chased
            # instance — mark the sharing instead of serializing it twice.
            payload["counterexample_shared"] = True
        else:
            payload["counterexample"] = instance_to_json(outcome.counterexample)
    if outcome.frozen_assignment is not None:
        payload["frozen"] = [
            [variable.name, value_to_json(value)]
            for variable, value in sorted(
                outcome.frozen_assignment.items(), key=lambda item: item[0].name
            )
        ]
    if outcome.error is not None:
        payload["error"] = outcome.error
    if outcome.analysis is not None:
        payload["analysis"] = outcome.analysis
    if outcome.join_backend is not None:
        payload["join_backend"] = outcome.join_backend
    return payload


def slim_unknown_outcome(payload: Json) -> Json:
    """Drop the budget-exhausted chase result from an UNKNOWN payload.

    An UNKNOWN carries no certificate — only its status matters for
    later use — so the (potentially huge) exhausted chase result is
    debris. Every layer that ships or stores UNKNOWN payloads (the
    result cache, the worker-pool wire, the HTTP server) applies this
    one policy; decisive payloads pass through untouched because their
    traces/counterexamples replay.
    """
    if (
        isinstance(payload, dict)
        and payload.get("status") == InferenceStatus.UNKNOWN.value
    ):
        payload.pop("chase_result", None)
    return payload


def outcome_from_json(payload: Json) -> InferenceOutcome:
    """Decode one inference outcome."""
    if (
        not isinstance(payload, dict)
        or "status" not in payload
        or "target" not in payload
    ):
        raise CodecError("outcome payload needs 'status' and 'target'")
    chase_payload = payload.get("chase_result")
    chase_result = (
        chase_result_from_json(chase_payload) if chase_payload is not None else None
    )
    counterexample_payload = payload.get("counterexample")
    if payload.get("counterexample_shared") and chase_result is not None:
        counterexample = chase_result.instance
    elif counterexample_payload is not None:
        counterexample = instance_from_json(counterexample_payload)
    else:
        counterexample = None
    frozen = payload.get("frozen")
    return InferenceOutcome(
        status=InferenceStatus(payload["status"]),
        target=dependency_from_json(payload["target"]),
        chase_result=chase_result,
        counterexample=counterexample,
        frozen_assignment=(
            {Variable(name): value_from_json(value) for name, value in frozen}
            if frozen is not None
            else None
        ),
        error=payload.get("error"),
        analysis=payload.get("analysis"),
        join_backend=payload.get("join_backend"),
    )


# ---------------------------------------------------------------------------
# Chase checkpoints (suspended budget-exhausted runs)
# ---------------------------------------------------------------------------

def checkpoint_to_json(checkpoint: ChaseCheckpoint) -> Json:
    """Encode a suspended chase for the result cache.

    Int rows, the frontier and the memo keys are stored verbatim: the
    intern table assigns ids in first-seen order and never reclaims
    them, so re-interning the encoded ``values`` list in order on
    decode reproduces identical ids.
    """
    suspension = checkpoint.suspension
    payload: dict = {
        "version": CHECKPOINT_VERSION,
        "dependencies": [
            dependency_to_json(dependency)
            for dependency in checkpoint.dependencies
        ],
        "values": [value_to_json(value) for value in checkpoint.values],
        "rows": [list(irow) for irow in checkpoint.rows],
        "frontier": [list(irow) for irow in suspension.delta],
        "plan_index": suspension.plan_index,
        "added": [list(irow) for irow in suspension.added],
        "evaluated": [
            [list(key) for key in keys] for keys in checkpoint.evaluated
        ],
        "next_null": checkpoint.next_null,
        "steps": checkpoint.steps,
        "rows_added": checkpoint.rows_added,
        "elapsed": checkpoint.elapsed,
    }
    if suspension.remaining is not None:
        payload["remaining"] = [list(key) for key in suspension.remaining]
    if checkpoint.target is not None:
        payload["target"] = dependency_to_json(checkpoint.target)
    if checkpoint.trace is not None:
        payload["trace"] = trace_to_json(list(checkpoint.trace))
    return payload


#: Env override for the checkpoint serialization row cap.
CHECKPOINT_MAX_ROWS_ENV = "REPRO_CHECKPOINT_MAX_ROWS"
#: Default cap: checkpoints of instances beyond this many rows are not
#: serialized (a resume saves recomputation only while the state is
#: cheaper to ship than to rebuild).
DEFAULT_CHECKPOINT_MAX_ROWS = 10_000


def encode_checkpoint(outcome: InferenceOutcome) -> Union[Json, None]:
    """The encoded checkpoint riding an UNKNOWN outcome, or None.

    None when the outcome carries no suspended chase (decided, capture
    off) or when the captured instance exceeds the
    ``REPRO_CHECKPOINT_MAX_ROWS`` cap — an oversized checkpoint costs
    more to store and ship than the resume would save.
    """
    result = outcome.chase_result
    checkpoint = getattr(result, "checkpoint", None)
    if checkpoint is None:
        return None
    cap = DEFAULT_CHECKPOINT_MAX_ROWS
    raw = os.environ.get(CHECKPOINT_MAX_ROWS_ENV)
    if raw:
        try:
            cap = int(raw)
        except ValueError:
            pass
    if checkpoint.row_count > cap:
        return None
    return checkpoint_to_json(checkpoint)


def checkpoint_from_json(payload: Json) -> ChaseCheckpoint:
    """Decode a suspended chase; :class:`CodecError` on junk."""
    if not isinstance(payload, dict) or "rows" not in payload:
        raise CodecError("checkpoint payload needs 'rows'")
    if payload.get("version") not in (1, CHECKPOINT_VERSION):
        raise CodecError(
            f"unsupported checkpoint version {payload.get('version')!r}"
        )

    def int_rows(key: str) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(map(int, irow)) for irow in payload.get(key, []))

    try:
        target_payload = payload.get("target")
        trace_payload = payload.get("trace")
        return ChaseCheckpoint(
            dependencies=tuple(
                dependency_from_json(entry)
                for entry in payload.get("dependencies", [])
            ),
            target=(
                dependency_from_json(target_payload)
                if target_payload is not None
                else None
            ),
            values=tuple(
                value_from_json(entry) for entry in payload.get("values", [])
            ),
            rows=int_rows("rows"),
            suspension=Suspension(
                delta=int_rows("frontier"),
                plan_index=int(payload.get("plan_index", 0)),
                remaining=(
                    int_rows("remaining") if "remaining" in payload else None
                ),
                added=int_rows("added"),
            ),
            evaluated=tuple(
                tuple(tuple(map(int, key)) for key in keys)
                for keys in payload.get("evaluated", [])
            ),
            next_null=int(payload.get("next_null", 0)),
            steps=int(payload.get("steps", 0)),
            rows_added=int(payload.get("rows_added", 0)),
            elapsed=float(payload.get("elapsed", 0.0)),
            trace=(
                tuple(trace_from_json(trace_payload))
                if trace_payload is not None
                else None
            ),
        )
    except (TypeError, ValueError, KeyError) as error:
        raise CodecError(f"bad checkpoint payload: {error}") from error


# ---------------------------------------------------------------------------
# Metrics snapshots
# ---------------------------------------------------------------------------


def metrics_snapshot_to_json(snapshot: MetricsSnapshot) -> Json:
    """Encode a frozen metrics-registry snapshot.

    The shape is :meth:`~repro.obs.metrics.MetricsSnapshot.to_json`'s;
    this wrapper exists so service payloads carrying metrics go through
    the same codec (and the same :class:`CodecError` discipline) as
    every other wire object.
    """
    return snapshot.to_json()


def metrics_snapshot_from_json(payload: Json) -> MetricsSnapshot:
    """Decode a metrics snapshot; :class:`CodecError` on junk."""
    try:
        return MetricsSnapshot.from_json(payload)
    except (ValueError, TypeError, KeyError) as error:
        raise CodecError(f"bad metrics snapshot payload: {error}") from error

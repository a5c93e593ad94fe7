"""The chase's firing sequence, pinned.

The differential suites compare chase *semantics* with the reference
engines; nothing there notices a change in the order triggers fire.
Traces, checkpoints and verdicts within a budget all depend on that
order, so it is pinned here twice:

* the trigger collection of every round (``_collect_matches_all``) must
  return the same ordered list as the copy in
  :mod:`tests.oracle.collect`, which enumerates without the old/delta
  split, for deltas that are the whole instance, a random subset of it
  and empty;
* a golden digest covers the traces, final instances and
  ``checkpoint=True`` suspensions of a seeded GL mix, a random typed
  TD/EID mix and a set with untyped atoms (the dispatcher path), plus
  the resumed runs of every suspension.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.chase.budget import Budget
from repro.chase.checkpoint import resume_implies
from repro.chase.engine import chase
from repro.chase.implication import implies
from repro.chase.plan import _collect_matches_all, compile_program
from repro.dependencies.parser import parse_td
from repro.io.json_codec import value_to_json
from repro.reduction.encode import encode
from repro.relational.instance import Instance
from repro.relational.schema import Schema
from repro.relational.values import Const
from repro.workloads.generators import (
    disguise,
    random_eid,
    random_instance,
    random_td,
)
from repro.workloads.instances import negative_family, positive_chain_family

from tests.oracle.collect import collect_matches_all

pytestmark = pytest.mark.usefixtures("join_backend")

#: The GL encodings of the mix: (family, k).
GL_KINDS = (
    ("positive", 1),
    ("positive", 2),
    ("positive", 3),
    ("negative", 0),
    ("negative", 1),
    ("negative", 2),
    ("negative", 3),
)

#: Step budgets of the first run; each suspension resumes with
#: ``RESUME_STEPS`` more.
STEP_BUDGETS = (20, 60)
RESUME_STEPS = 40

#: Untyped atoms give the dispatcher a row-level equality pattern, so
#: the whole program takes the per-seed path (``_collect_matches``).
UNTYPED_SCHEMA = Schema(["A", "B", "C"])
UNTYPED_SET = (
    "R(x, y, z) & R(y, z, w) -> R(z, w, u)",
    "R(x, x, y) & R(y, z, x) -> R(z, y, y)",
    "R(x, y, y) -> R(y, x, x)",
    "R(x, y, z) & R(z, y, x) -> R(x, x, z)",
)
UNTYPED_TARGET = "R(a, b, c) & R(c, a, b) -> R(b, b, c)"


def _steps(max_steps: int) -> Budget:
    return Budget(max_steps=max_steps, max_rows=None, max_seconds=None)


def _gl_encoding(kind):
    family, k = kind
    return encode(positive_chain_family(k) if family == "positive" else negative_family(k))


def _gl_mix():
    """(premises, target) per GL kind, in two orders, one alpha-renamed."""
    for kind in GL_KINDS:
        encoding = _gl_encoding(kind)
        for order in range(2):
            premises = list(encoding.dependencies)
            random.Random(f"firing-{kind[0]}-{kind[1]}-{order}").shuffle(premises)
            target = encoding.d0
            if order:
                premises = [
                    disguise(dependency, seed=index, tag="g")
                    for index, dependency in enumerate(premises)
                ]
                target = disguise(target, seed=order, tag="t")
            yield premises, target


def _untyped_start() -> Instance:
    rng = random.Random(0)
    values = [Const(name) for name in "abcd"]
    return Instance(
        UNTYPED_SCHEMA,
        [tuple(rng.choice(values) for __ in range(3)) for __ in range(8)],
    )


def _random_mix(count: int = 40):
    """(premises, start instance, target) of random typed TD/EID sets."""
    for seed in range(count):
        rng = random.Random(seed)
        premises = []
        for index in range(rng.randint(2, 4)):
            if rng.random() < 0.5:
                premises.append(
                    random_td(antecedents=rng.randint(2, 4), seed=seed * 10 + index)
                )
            else:
                premises.append(
                    random_eid(antecedents=rng.randint(2, 3), seed=seed * 10 + index)
                )
        start = random_instance(rows=rng.randint(6, 14), seed=seed)
        target = random_td(antecedents=rng.randint(2, 4), seed=1000 + seed)
        yield premises, start, target


def _rows(rows) -> list:
    return [[value_to_json(value) for value in row] for row in rows]


def _record(result, premises) -> dict:
    """What a chase run fixes about the firing sequence.

    A step names its dependency by premise position. A suspension's int
    rows, frontier, trigger snapshot and memos enter as the hash of
    their ``repr`` (plain int tuples), its intern table as values.
    """
    position = {dependency: index for index, dependency in enumerate(premises)}
    record = {
        "status": result.status.value,
        "steps": [
            [
                position[step.dependency],
                [[name, value_to_json(value)] for name, value in step.bindings],
                _rows(step.added_rows),
            ]
            for step in result.steps
        ],
        "instance": _rows(result.instance),
    }
    checkpoint = result.checkpoint
    if checkpoint is not None:
        suspension = checkpoint.suspension
        state = (
            checkpoint.rows,
            suspension.delta,
            suspension.plan_index,
            suspension.remaining,
            suspension.added,
            checkpoint.evaluated,
            checkpoint.next_null,
            checkpoint.steps,
            checkpoint.rows_added,
        )
        record["checkpoint"] = {
            "values": _rows([checkpoint.values])[0],
            "state": hashlib.sha256(repr(state).encode()).hexdigest(),
        }
    return record


def _implies_records(premises, target) -> list:
    """One run per step budget, plus the resumed run of each suspension."""
    records = []
    for max_steps in STEP_BUDGETS:
        outcome = implies(
            premises,
            target,
            budget=_steps(max_steps),
            checkpoint=True,
            analysis="off",
        )
        records.append(_record(outcome.chase_result, premises))
        checkpoint = outcome.chase_result.checkpoint
        if checkpoint is not None:
            resumed = resume_implies(checkpoint, budget=_steps(max_steps + RESUME_STEPS))
            records.append(_record(resumed.chase_result, premises))
    return records


def firing_corpus() -> list:
    """Every record the golden digest covers, in a fixed order."""
    records = []
    for premises, target in _gl_mix():
        records += _implies_records(premises, target)
    untyped = [parse_td(text, UNTYPED_SCHEMA) for text in UNTYPED_SET]
    mixes = list(_random_mix())
    mixes.append((untyped, _untyped_start(), parse_td(UNTYPED_TARGET, UNTYPED_SCHEMA)))
    for premises, start, target in mixes:
        for max_steps in STEP_BUDGETS:
            records.append(
                _record(
                    chase(start, premises, budget=_steps(max_steps), checkpoint=True),
                    premises,
                )
            )
        records += _implies_records(premises, target)
    return records


def firing_digest() -> str:
    digest = hashlib.sha256()
    for record in firing_corpus():
        digest.update(json.dumps(record, sort_keys=True).encode())
    return digest.hexdigest()


#: SHA-256 of :func:`firing_corpus`, computed on the trigger collection
#: that enumerates each match once per delta atom (before the old/delta
#: split). A change here means some chase fires in a different order.
GOLDEN_FIRING_DIGEST = "68e8f2b99ad27a7153a6578a4b458faf862a3ef214cb75d2654bbd82704b1df6"


class TestGoldenFiringDigest:
    def test_firing_digest_is_pinned(self):
        assert firing_digest() == GOLDEN_FIRING_DIGEST


def _collection_states():
    """(premises, instance) pairs: GL chases and random typed sets, mid-chase."""
    for premises, target in _gl_mix():
        outcome = implies(premises, target, budget=_steps(30), analysis="off")
        yield premises, outcome.chase_result.instance
    for premises, start, __ in _random_mix(20):
        yield premises, start
        yield premises, chase(start, premises, budget=_steps(20)).instance


def _deltas(rows, rng):
    """The whole instance, a random subset of it in random order, empty."""
    return (list(rows), rng.sample(rows, rng.randint(1, len(rows))), [])


class TestPivotCollectionOrder:
    def test_split_collection_matches_the_unsplit_oracle(self):
        rng = random.Random(24)
        compared = 0
        for premises, instance in _collection_states():
            plans, dispatcher = compile_program(premises)
            assert dispatcher.trivial  # typed: the pivot-major path
            state = instance.kernel_view()
            for delta in _deltas(state.rows_list, rng):
                delta_rows = set(delta)
                for plan in plans:
                    expected = collect_matches_all(state, plan, delta, set())
                    assert _collect_matches_all(
                        state, plan, delta, delta_rows, set()
                    ) == expected
                    evaluated = set(rng.sample(expected, len(expected) // 3))
                    assert _collect_matches_all(
                        state, plan, delta, delta_rows, evaluated
                    ) == [key for key in expected if key not in evaluated]
                    compared += len(expected)
        assert compared > 10_000

"""Resume equivalence: a suspended chase resumed under budget ``B`` is the
chase that never stopped.

:func:`repro.chase.checkpoint.resume_implies` continues a budget-starved
implication test from its :class:`ChaseCheckpoint`. It picks up mid-round
with the firings the interrupted run would have made next and charges
the spent work against ``B``. So for every starve point and every
``B``, the resumed run must match a from-scratch :func:`implies` under
``B``: the same verdict, the same cumulative step count and the same
final instance (hence the same DISPROVED counterexample). The suite
holds this over transitivity chains, random TD sets and the paper's
Gurevich–Lewis encodings, through the JSON codec and along chains of
re-checkpoints, on both join backends.
"""

import pytest

from repro.chase.budget import Budget
from repro.chase.checkpoint import (
    CHECKPOINT_VERSION,
    ChaseCheckpoint,
    capture_checkpoint,
    resume_implies,
)
from repro.chase.engine import replay
from repro.chase.implication import (
    InferenceStatus,
    conclusion_satisfied,
    implies,
)
from repro.dependencies.parser import parse_td
from repro.io.json_codec import checkpoint_from_json, encode_checkpoint
from repro.reduction.encode import encode
from repro.workloads.generators import random_full_td, random_td
from repro.workloads.instances import positive_chain_family

#: The native leg skips visibly when the extension is not built.
pytestmark = pytest.mark.usefixtures("join_backend")

#: Comfortably above every case's from-scratch chase.
GENEROUS = 400


def _transitivity_cases():
    transitivity = parse_td("R(x, y) & R(y, z) -> R(x, z)")
    cases = []
    for n in (4, 6, 8):
        atoms = " & ".join(f"R(a{i}, a{i + 1})" for i in range(n))
        cases.append((f"proved-chain-{n}", [transitivity], parse_td(f"{atoms} -> R(a0, a{n})")))
        cases.append((f"disproved-chain-{n}", [transitivity], parse_td(f"{atoms} -> R(a{n}, a0)")))
    # Never decided: every budget ends UNKNOWN, resumed or not.
    cases.append(
        ("diverging", [parse_td("R(x, y) -> R(y, z)")], parse_td("R(a, b) -> R(b, a)"))
    )
    return cases


def _random_draws():
    """Random embedded TD sets against random full targets (seeded)."""
    draws = []
    for seed in range(40):
        dependencies = [
            random_td(
                arity=3,
                antecedents=3,
                variables_per_column=3,
                existential_probability=0.2,
                seed=100 * seed + index,
            )
            for index in range(4)
        ]
        target = random_full_td(
            arity=3, antecedents=4, variables_per_column=4, seed=7000 + seed
        )
        draws.append((dependencies, target))
    return draws


def _gl_cases():
    """The reduction's positive chains, premises in the paper's order."""
    cases = []
    for k in (1, 2):
        encoding = encode(positive_chain_family(k))
        cases.append((f"gl-positive-{k}", encoding.dependencies, encoding.d0))
    return cases


CASES = _transitivity_cases() + _gl_cases()
RANDOM_DRAWS = _random_draws()


def _starved(dependencies, target, steps):
    outcome = implies(
        dependencies, target, budget=Budget(max_steps=steps), checkpoint=True
    )
    assert outcome.status is InferenceStatus.UNKNOWN
    checkpoint = outcome.chase_result.checkpoint
    assert isinstance(checkpoint, ChaseCheckpoint)
    assert checkpoint.steps == steps
    return checkpoint


def _starve_points(total):
    return sorted({1, total // 3, (2 * total) // 3, total - 1} - {0})


def _assert_same_chase(resumed, scratch):
    assert resumed.status is scratch.status
    assert resumed.chase_result.stats.steps == scratch.chase_result.stats.steps
    assert resumed.chase_result.instance.rows == scratch.chase_result.instance.rows
    if scratch.status is InferenceStatus.DISPROVED:
        assert len(resumed.counterexample) == len(scratch.counterexample)
    if scratch.status is InferenceStatus.PROVED:
        start, frozen = resumed.target.freeze()
        final = replay(start, resumed.chase_result.steps, verify=True)
        assert conclusion_satisfied(final, resumed.target, frozen)


def check_resume_under_any_budget(dependencies, target):
    full = implies(dependencies, target, budget=Budget(max_steps=GENEROUS))
    total = full.chase_result.stats.steps
    for starve in _starve_points(total):
        checkpoint = _starved(dependencies, target, starve)
        for limit in sorted({starve, starve + 1, (starve + total) // 2, total, GENEROUS}):
            budget = Budget(max_steps=limit)
            _assert_same_chase(
                resume_implies(checkpoint, budget=budget),
                implies(dependencies, target, budget=budget),
            )


def check_codec_round_trip(dependencies, target):
    full = implies(dependencies, target, budget=Budget(max_steps=GENEROUS))
    starve = max(1, full.chase_result.stats.steps // 2)
    outcome = implies(
        dependencies, target, budget=Budget(max_steps=starve), checkpoint=True
    )
    payload = encode_checkpoint(outcome)
    decoded = checkpoint_from_json(payload)
    assert payload["version"] == CHECKPOINT_VERSION
    assert decoded == outcome.chase_result.checkpoint
    budget = Budget(max_steps=GENEROUS)
    _assert_same_chase(resume_implies(decoded, budget=budget), full)


def check_chained_recheckpoints(dependencies, target):
    """Starve, then resume under a few growing budgets that each run out
    again (through the codec every hop), then finish."""
    full = implies(dependencies, target, budget=Budget(max_steps=GENEROUS))
    total = full.chase_result.stats.steps
    checkpoint = _starved(dependencies, target, 1)
    for limit in _starve_points(total)[1:]:
        hop = resume_implies(checkpoint, budget=Budget(max_steps=limit))
        assert hop.status is InferenceStatus.UNKNOWN
        assert hop.chase_result.stats.steps == limit
        checkpoint = checkpoint_from_json(encode_checkpoint(hop))
    _assert_same_chase(resume_implies(checkpoint, budget=Budget(max_steps=GENEROUS)), full)


CHECKS = {
    "any-budget": check_resume_under_any_budget,
    "codec": check_codec_round_trip,
    "chained": check_chained_recheckpoints,
}


@pytest.mark.parametrize("check", CHECKS.values(), ids=CHECKS.keys())
@pytest.mark.parametrize(
    "dependencies, target", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_resume_matches_from_scratch(check, dependencies, target):
    check(dependencies, target)


@pytest.mark.parametrize("check", CHECKS.values(), ids=CHECKS.keys())
def test_resume_matches_from_scratch_on_random_td_sets(check):
    """Most draws decide in under three steps, leaving nothing to
    starve; every other draw is checked. How many chase that long
    depends on firing order, so the draws are looped over here rather
    than parametrized."""
    checked = 0
    for dependencies, target in RANDOM_DRAWS:
        full = implies(dependencies, target, budget=Budget(max_steps=GENEROUS))
        if full.chase_result.stats.steps >= 3:
            check(dependencies, target)
            checked += 1
    assert checked >= 10


def test_exhausted_resume_fires_nothing():
    """Resuming under the budget the checkpoint already spent stops
    before firing, and hands back the same suspension."""
    transitivity = parse_td("R(x, y) & R(y, z) -> R(x, z)")
    target = parse_td("R(a0, a1) & R(a1, a2) & R(a2, a3) & R(a3, a4) -> R(a0, a4)")
    checkpoint = _starved([transitivity], target, 3)
    again = resume_implies(checkpoint, budget=Budget(max_steps=3))
    assert again.status is InferenceStatus.UNKNOWN
    assert again.chase_result.stats.steps == 3
    assert again.chase_result.checkpoint.suspension == checkpoint.suspension


def test_untraced_checkpoint_resumes_untraced():
    """A checkpoint captured with tracing off cannot yield a replayable
    trace, so the resumed run records none rather than a partial one."""
    transitivity = parse_td("R(x, y) & R(y, z) -> R(x, z)")
    target = parse_td("R(a0, a1) & R(a1, a2) & R(a2, a3) & R(a3, a4) -> R(a0, a4)")
    starved = implies(
        [transitivity],
        target,
        budget=Budget(max_steps=2),
        record_trace=False,
        checkpoint=True,
    )
    checkpoint = starved.chase_result.checkpoint
    assert checkpoint.trace is None
    resumed = resume_implies(checkpoint, budget=Budget(max_steps=GENEROUS))
    assert resumed.status is InferenceStatus.PROVED
    assert resumed.chase_result.steps == []


def test_version_one_checkpoint_still_resumes():
    """Version 1 payloads carry no mid-round position: their frontier is
    the round's delta plus its added rows. They still resume soundly —
    on a full TD set the closure, and so the verdict, is the same."""
    transitivity = parse_td("R(x, y) & R(y, z) -> R(x, z)")
    target = parse_td(
        "R(a0, a1) & R(a1, a2) & R(a2, a3) & R(a3, a4) & R(a4, a5) -> R(a5, a0)"
    )
    full = implies([transitivity], target, budget=Budget(max_steps=GENEROUS))
    outcome = implies(
        [transitivity], target, budget=Budget(max_steps=5), checkpoint=True
    )
    payload = encode_checkpoint(outcome)
    payload["version"] = 1
    payload["frontier"] = payload["frontier"] + payload.pop("added")
    del payload["plan_index"]
    payload.pop("remaining", None)
    resumed = resume_implies(
        checkpoint_from_json(payload), budget=Budget(max_steps=GENEROUS)
    )
    assert resumed.status is InferenceStatus.DISPROVED
    assert resumed.chase_result.instance.rows == full.chase_result.instance.rows


def test_capture_without_a_suspension_reseeds_every_row():
    """A session that never suspended still checkpoints: the capture
    falls back to re-seeding from every row (the memos skip the work
    already done)."""
    from repro.chase.plan import ChaseSession
    from repro.relational.values import NullFactory

    transitivity = parse_td("R(x, y) & R(y, z) -> R(x, z)")
    target = parse_td("R(a0, a1) & R(a1, a2) & R(a2, a3) -> R(a0, a3)")
    working, __ = target.freeze()
    session = ChaseSession(working, [transitivity], fresh=NullFactory())
    checkpoint = capture_checkpoint(
        session, stats=Budget().start(), trace=[], target=target
    )
    assert checkpoint.suspension.delta == tuple(session.state.rows_list)
    resumed = resume_implies(checkpoint, budget=Budget(max_steps=GENEROUS))
    assert resumed.status is InferenceStatus.PROVED

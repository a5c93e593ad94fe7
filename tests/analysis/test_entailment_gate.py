"""The certified-rest gate on the entailment pass.

:func:`repro.analysis.prune_for_target` chases an entailment candidate
only when the premises left without it are certified, because
``implies`` runs the pruned program to fixpoint only when it is
certified. :func:`tests.oracle.prune.prune_ungated` is the pass before
that gate. On the random TD/EID corpus of ``test_position_facts`` and
on E18's premises:

* wherever the never-fires/duplicate kept set is certified (so every
  subset of it is), the gated pass makes exactly the reference's drops;
* every set the reference certifies, the gated pass certifies too.

The GL encodings are never certified, so their prune runs no
entailment chase at all, in declaration order and in both of the
``gl_reduction`` workload's premise orders.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import analyze, prune_for_target
from repro.analysis import report as report_module
from repro.chase import implication
from repro.dependencies.parser import parse_td
from repro.reduction.encode import encode
from repro.workloads.generators import disguise
from repro.workloads.instances import negative_family, positive_chain_family

from tests.analysis.test_position_facts import GL_KINDS, RANDOM_SETS, _random_set
from tests.oracle.prune import prune_ungated

#: Random sets where one entailed drop is what certifies the set.
ENTAILMENT_CERTIFIES = (1037, 1116, 1138)


@pytest.fixture(autouse=True)
def fresh_memos(monkeypatch):
    """Cold analyzer memos, kept from other tests both ways, so that
    the chase counters below see every prune run its pass."""
    monkeypatch.setattr(report_module, "_ANALYSIS_CACHE", {})
    monkeypatch.setattr(report_module, "_PRUNE_CACHE", {})


def e18_premises() -> tuple:
    """E18's premises (``benchmarks/bench_analysis.py``): transitivity,
    a renamed duplicate, two entailed chain rules, a never-firing rule."""
    base = parse_td("R(x, y) & R(y, z) -> R(x, z)")
    return (
        base,
        disguise(base, seed=11),
        parse_td("R(x, y) & R(y, z) & R(z, u) -> R(x, u)"),
        parse_td("R(x, y) & R(y, z) & R(z, u) & R(u, v) -> R(x, v)"),
        parse_td("R(x, y) & R(y, z) -> R(x, w)"),
    )


def _corpus():
    yield "e18", e18_premises()
    for seed in range(RANDOM_SETS):
        yield f"random-{seed}", _random_set(seed)


def _base(dependencies: tuple, program) -> tuple:
    """The kept set after the never-fires and duplicate drops."""
    gone = {entry.index for entry in program.dropped if entry.reason != "entailed"}
    return tuple(
        dependency
        for index, dependency in enumerate(dependencies)
        if index not in gone
    )


def _drops(program) -> list:
    return [(entry.index, entry.reason) for entry in program.dropped]


class TestGateAgainstUngatedReference:
    def test_corpus(self):
        certified_base = with_entailed = rescued = 0
        for label, dependencies in _corpus():
            gated = prune_for_target(dependencies)
            reference = prune_ungated(dependencies)
            if analyze(_base(dependencies, reference)).certified:
                certified_base += 1
                with_entailed += any(
                    entry.reason == "entailed" for entry in reference.dropped
                )
                # By index: the memo keys on content, not on names.
                assert _drops(gated) == _drops(reference), label
                assert gated.kept == reference.kept, label
            if reference.kept_report.certified:
                assert gated.kept_report.certified, label
                rescued += not analyze(_base(dependencies, reference)).certified
        # The corpus must reach both branches of the gate: certified
        # bases where entailed drops happen, and sets that one entailed
        # drop certifies.
        assert certified_base >= 500 and with_entailed >= 5, (
            certified_base,
            with_entailed,
        )
        assert rescued == len(ENTAILMENT_CERTIFIES), rescued

    def test_e18_prunes_five_to_one(self):
        program = prune_for_target(e18_premises())
        assert len(program.kept) == 1
        assert sorted(entry.reason for entry in program.dropped) == [
            "duplicate",
            "entailed",
            "entailed",
            "never-fires",
        ]
        assert program.kept_report.certified

    @pytest.mark.parametrize("seed", ENTAILMENT_CERTIFIES)
    def test_one_entailed_drop_certifies(self, seed):
        dependencies = _random_set(seed)
        program = prune_for_target(dependencies)
        assert not analyze(_base(dependencies, program)).certified
        assert [entry.reason for entry in program.dropped].count("entailed") == 1
        assert program.kept_report.certified


def _gl_orders():
    """Each GL kind in declaration order and in the two fixed premise
    orders of ``perfbench/gl_reduction.py``."""
    families = {"positive": positive_chain_family, "negative": negative_family}
    for family, k in GL_KINDS:
        premises = list(encode(families[family](k)).dependencies)
        yield f"{family}-{k}-declared", tuple(premises)
        for order in range(2):
            shuffled = list(premises)
            random.Random(f"gl-order-{family}-{k}-{order}").shuffle(shuffled)
            yield f"{family}-{k}-order-{order}", tuple(shuffled)


class TestNoChaseWhereNoneRuns:
    @pytest.fixture
    def implies_calls(self, monkeypatch):
        calls = []
        production = implication.implies

        def counting(*args, **kwargs):
            calls.append(args)
            return production(*args, **kwargs)

        monkeypatch.setattr(implication, "implies", counting)
        return calls

    @pytest.mark.parametrize(
        "label, premises", list(_gl_orders()), ids=lambda value: str(value)[:24]
    )
    def test_gl_prune_runs_no_entailment_chase(self, implies_calls, label, premises):
        program = prune_for_target(premises)
        assert not program.kept_report.certified, label
        assert implies_calls == [], label

    def test_e18_prune_does_chase(self, implies_calls):
        # The counter sees the pass's chases where they pay.
        prune_for_target(e18_premises())
        assert implies_calls

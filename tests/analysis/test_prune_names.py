"""``prune_for_target`` names what it keeps and drops after the caller.

The prune memo keys on dependency content, and dependency equality
ignores ``name``: two callers whose premises differ only in names share
one memo entry. ``kept`` and the dropped names must still come from each
caller's own tuple, or provenance and a certified set's PROVED trace
would name another caller's dependencies.
"""

from __future__ import annotations

import pytest

from repro.analysis import prune_for_target
from repro.analysis import report as report_module
from repro.dependencies.parser import parse_td
from repro.dependencies.template import TemplateDependency
from repro.workloads.generators import disguise

from tests.analysis.test_entailment_gate import _corpus as entailment_corpus
from tests.analysis.test_position_facts import CLI_DIGEST, GL_KINDS, RANDOM_SETS, cli_digest


def named(dependency: TemplateDependency, name: str) -> TemplateDependency:
    return TemplateDependency(
        dependency.schema, dependency.antecedents, dependency.conclusion, name=name
    )


@pytest.fixture
def fresh_prune_memo(monkeypatch):
    memo: dict = {}
    monkeypatch.setattr(report_module, "_PRUNE_CACHE", memo)
    return memo


def test_memo_hit_takes_the_callers_names(fresh_prune_memo):
    transitivity = parse_td("R(x, y) & R(y, z) -> R(x, z)")
    duplicate = disguise(transitivity, seed=3)
    first = (named(transitivity, "first"), named(duplicate, "dup"))
    second = (named(transitivity, "second"), named(duplicate, "other"))
    assert first == second

    for premises in (first, second):
        program = prune_for_target(premises)
        assert len(fresh_prune_memo) == 1
        assert program.kept == (premises[0],)
        assert program.kept[0] is premises[0]
        assert [(entry.index, entry.name, entry.reason) for entry in program.dropped] == [
            (1, premises[1].name, "duplicate")
        ]


def test_unnamed_hit_takes_positional_names(fresh_prune_memo):
    transitivity = parse_td("R(x, y) & R(y, z) -> R(x, z)")
    prune_for_target((named(transitivity, "t"), named(transitivity, "again")))
    program = prune_for_target((transitivity, transitivity))
    assert [entry.name for entry in program.dropped] == ["dependency[1]"]


def test_cli_digest_after_the_entailment_corpus(monkeypatch, fresh_prune_memo, tmp_path):
    # Every named set of the entailment-gate corpus stays in the memo, so
    # an unnamed set that the CLI parses back equal to one is a hit.
    monkeypatch.setattr(report_module, "_PRUNE_CACHE_MAX", 4096)
    for __, dependencies in entailment_corpus():
        prune_for_target(dependencies)
    size = len(fresh_prune_memo)
    assert cli_digest(tmp_path) == CLI_DIGEST
    # Most of the CLI's random sets were hits on a named program. A set
    # with a one-conclusion EID is new: it parses back as a TD.
    assert len(fresh_prune_memo) - size < len(GL_KINDS) + RANDOM_SETS // 2

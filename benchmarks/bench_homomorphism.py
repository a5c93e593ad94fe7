"""E9 (substrate) — homomorphism search scaling.

The homomorphism finder underlies everything (triggers, model checking,
implication); this measures pattern matching into cycles of growing size
and patterns of growing length, recording the match-count series, on
the generic backtracking search kept in ``tests/oracle``.
"""

import pytest

from repro.relational.instance import Instance
from repro.relational.schema import Schema
from repro.relational.values import Const, LabeledNull

from conftest import record
from tests.oracle.homomorphism import count_homomorphisms, find_homomorphism

EXPERIMENT = "E9b / homomorphism search: path patterns into cycles"

SCHEMA = Schema(["FROM", "TO"])


def cycle(size: int) -> Instance:
    nodes = [Const(f"n{index}") for index in range(size)]
    return Instance(
        SCHEMA, [(nodes[index], nodes[(index + 1) % size]) for index in range(size)]
    )


def path_pattern(length: int):
    variables = [LabeledNull(index) for index in range(length + 1)]
    return [
        (variables[index], variables[index + 1]) for index in range(length)
    ]


@pytest.mark.parametrize("size", [10, 40, 160])
def test_cycle_size_scaling(benchmark, size):
    target = cycle(size)
    pattern = path_pattern(4)
    count = benchmark(count_homomorphisms, pattern, target)
    assert count == size  # a path embeds once per starting node
    record(
        EXPERIMENT,
        f"cycle n={size:>4}, path k=4: {count:>4} matches (= n, one per start)",
    )


@pytest.mark.parametrize("length", [2, 6, 12])
def test_pattern_length_scaling(benchmark, length):
    target = cycle(32)
    pattern = path_pattern(length)
    count = benchmark(count_homomorphisms, pattern, target)
    assert count == 32
    record(
        EXPERIMENT,
        f"cycle n=32, path k={length:>2}: {count} matches "
        "(count independent of k on a cycle)",
    )


def test_unsatisfiable_pattern_fast_failure(benchmark):
    """The index prunes impossible patterns without search."""
    target = cycle(64)
    absent = Const("not-in-cycle")
    pattern = [(absent, LabeledNull(0))]
    found = benchmark(find_homomorphism, pattern, target)
    assert found is None
    record(EXPERIMENT, "unsatisfiable pattern: rejected via index, no backtracking")

"""Unit tests for the reference homomorphism search (tests.oracle.homomorphism)."""

import pytest

from repro.relational.instance import Instance
from repro.relational.schema import Schema
from repro.relational.values import Const, LabeledNull

from tests.oracle.homomorphism import (
    count_homomorphisms,
    extend_homomorphism,
    find_homomorphism,
    iter_homomorphisms,
)


@pytest.fixture
def schema():
    return Schema(["A", "B"])


@pytest.fixture
def target(schema):
    a, b, c = Const("a"), Const("b"), Const("c")
    return Instance(schema, [(a, b), (b, c), (a, c)])


class TestFind:
    def test_identity_embedding_of_constants(self, target):
        found = find_homomorphism([(Const("a"), Const("b"))], target)
        assert found == {}

    def test_missing_constant_row(self, target):
        assert find_homomorphism([(Const("c"), Const("a"))], target) is None

    def test_null_maps_anywhere(self, target):
        null = LabeledNull(0)
        found = find_homomorphism([(Const("a"), null)], target)
        assert found is not None
        assert found[null] in {Const("b"), Const("c")}

    def test_shared_null_must_join(self, schema, target):
        x = LabeledNull(0)
        # (a, x) and (x, c): x must be b.
        found = find_homomorphism([(Const("a"), x), (x, Const("c"))], target)
        assert found == {x: Const("b")}

    def test_unsatisfiable_join(self, target):
        x = LabeledNull(0)
        # (x, a) requires a in column B: absent.
        assert find_homomorphism([(x, Const("a"))], target) is None

    def test_partial_binding_respected(self, target):
        x = LabeledNull(0)
        found = find_homomorphism(
            [(Const("a"), x)], target, partial={x: Const("c")}
        )
        assert found == {x: Const("c")}

    def test_partial_binding_can_block(self, target):
        x = LabeledNull(0)
        assert (
            find_homomorphism([(x, Const("b"))], target, partial={x: Const("b")})
            is None
        )

    def test_empty_source_trivially_embeds(self, target):
        assert find_homomorphism([], target) == {}


class TestIterAndCount:
    def test_iter_yields_all(self, target):
        x = LabeledNull(0)
        images = {
            assignment[x]
            for assignment in iter_homomorphisms([(Const("a"), x)], target)
        }
        assert images == {Const("b"), Const("c")}

    def test_count(self, target):
        x, y = LabeledNull(0), LabeledNull(1)
        # Any row matches (x, y): three homomorphisms.
        assert count_homomorphisms([(x, y)], target) == 3

    def test_count_with_limit(self, target):
        x, y = LabeledNull(0), LabeledNull(1)
        assert count_homomorphisms([(x, y)], target, limit=2) == 2

    def test_yielded_dict_is_reused(self, target):
        x = LabeledNull(0)
        seen = list(iter_homomorphisms([(Const("a"), x)], target))
        # Both entries are the same (emptied) dict object; callers copy.
        assert seen[0] is seen[1]


class TestExtend:
    def test_extend_succeeds(self, target):
        x = LabeledNull(0)
        extension = extend_homomorphism({}, [(Const("a"), x)], target)
        assert extension is not None

    def test_extend_fails(self, target):
        x = LabeledNull(0)
        assert extend_homomorphism({x: Const("a")}, [(x, Const("a"))], target) is None


class TestCustomFlexibility:
    def test_everything_rigid(self, target):
        flexible = lambda term: False  # noqa: E731 - tiny test stub
        assert (
            find_homomorphism(
                [(Const("a"), Const("z"))], target, flexible=flexible
            )
            is None
        )

    def test_strings_as_variables(self, schema):
        target = Instance(schema, [(Const("a"), Const("b"))])
        flexible = lambda term: isinstance(term, str)  # noqa: E731
        found = find_homomorphism([("u", "v")], target, flexible=flexible)
        assert found == {"u": Const("a"), "v": Const("b")}


class TestScaling:
    def test_path_query_on_grid(self, schema):
        # A 20-node cycle; a length-5 path pattern has exactly 20 matches.
        nodes = [Const(f"n{i}") for i in range(20)]
        cycle = Instance(
            schema, [(nodes[i], nodes[(i + 1) % 20]) for i in range(20)]
        )
        path = []
        variables = [LabeledNull(i) for i in range(6)]
        for i in range(5):
            path.append((variables[i], variables[i + 1]))
        assert count_homomorphisms(path, cycle) == 20

"""Unit tests for repro.relational.homomorphism (check and substitute).

The search itself is tested in tests/relational/test_homplan.py
(production) and tests/oracle/test_homomorphism.py (reference).
"""

import pytest

from repro.relational.homomorphism import apply_assignment, is_homomorphism
from repro.relational.instance import Instance
from repro.relational.schema import Schema
from repro.relational.values import Const, LabeledNull


@pytest.fixture
def schema():
    return Schema(["A", "B"])


@pytest.fixture
def target(schema):
    a, b, c = Const("a"), Const("b"), Const("c")
    return Instance(schema, [(a, b), (b, c), (a, c)])


class TestCheckAndApply:
    def test_is_homomorphism_true(self, target):
        x = LabeledNull(0)
        assert is_homomorphism({x: Const("b")}, [(Const("a"), x)], target)

    def test_is_homomorphism_false_wrong_image(self, target):
        x = LabeledNull(0)
        assert not is_homomorphism({x: Const("a")}, [(x, Const("a"))], target)

    def test_is_homomorphism_false_unbound(self, target):
        x = LabeledNull(0)
        assert not is_homomorphism({}, [(Const("a"), x)], target)

    def test_apply_assignment(self):
        x = LabeledNull(0)
        assert apply_assignment((Const("a"), x), {x: Const("b")}) == (
            Const("a"),
            Const("b"),
        )

    def test_apply_assignment_leaves_unbound(self):
        x = LabeledNull(0)
        assert apply_assignment((x,), {}) == (x,)

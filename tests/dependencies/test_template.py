"""Unit tests for repro.dependencies.template."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.dependencies.template import TemplateDependency, Variable, is_variable
from repro.errors import ArityError, DependencyError, TypingError
from repro.relational.instance import Instance
from repro.relational.schema import Schema
from repro.relational.values import Const


@pytest.fixture
def schema():
    return Schema(["A", "B", "C"])


def make_fig1(schema):
    a, b, c = Variable("a"), Variable("b"), Variable("c")
    b2, c2, a_star = Variable("b2"), Variable("c2"), Variable("a*")
    return TemplateDependency(
        schema, [(a, b, c), (a, b2, c2)], (a_star, b, c2)
    )


class TestVariable:
    def test_equality_by_name(self):
        assert Variable("x") == Variable("x")
        assert Variable("x") != Variable("y")

    def test_empty_name_rejected(self):
        with pytest.raises(DependencyError):
            Variable("")

    def test_is_variable(self):
        assert is_variable(Variable("x"))
        assert not is_variable("x")
        assert not is_variable(Const("x"))

    def test_unpickled_variable_hashes_under_the_loading_hash_seed(self):
        # Pool workers unpickle variables in processes with their own
        # string-hash seed: the hash must be recomputed, not carried over.
        pickled = _run_python(
            "1",
            "import pickle, sys\n"
            "from repro.dependencies.template import Variable\n"
            "sys.stdout.buffer.write(pickle.dumps(Variable('x')))",
        )
        loaded = _run_python(
            "2",
            "import pickle, sys\n"
            "from repro.dependencies.template import Variable\n"
            "v = pickle.loads(sys.stdin.buffer.read())\n"
            "print(v == Variable('x'), v in {Variable('x')})",
            stdin=pickled,
        )
        assert loaded.split() == [b"True", b"True"]


class TestPickledHash:
    def test_unpickled_dependencies_hash_under_the_loading_hash_seed(self):
        # Dependencies cache their hash on first use; the cached value
        # (and the schema's) must not travel to a process with another
        # string-hash seed.
        build = (
            "from repro.dependencies.eid import td_as_eid\n"
            "from repro.dependencies.parser import parse_td\n"
            "td = parse_td('R(x,y) & R(y,z) -> R(x,w)')\n"
            "deps = (td, td_as_eid(td), td.schema)\n"
        )
        pickled = _run_python(
            "1",
            "import pickle, sys\n" + build + "[hash(d) for d in deps]\n"
            "sys.stdout.buffer.write(pickle.dumps(deps))",
        )
        loaded = _run_python(
            "2",
            "import pickle, sys\n" + build + "loaded = pickle.loads(sys.stdin.buffer.read())\n"
            "for old, new in zip(loaded, deps):\n"
            "    print(old == new, hash(old) == hash(new), old in {new: 1})\n",
            stdin=pickled,
        )
        assert loaded.split() == [b"True"] * 9


def _run_python(seed: str, code: str, stdin: bytes = b"") -> bytes:
    """Run ``code`` in a fresh interpreter under ``PYTHONHASHSEED=seed``."""
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", code],
        input=stdin,
        env=env,
        capture_output=True,
        check=True,
    ).stdout


class TestConstruction:
    def test_basic(self, schema):
        td = make_fig1(schema)
        assert len(td.antecedents) == 2
        assert len(td.conclusion) == 3

    def test_no_antecedents_rejected(self, schema):
        v = [Variable(f"v{i}") for i in range(3)]
        with pytest.raises(DependencyError):
            TemplateDependency(schema, [], tuple(v))

    def test_wrong_arity_rejected(self, schema):
        v = Variable("v")
        with pytest.raises(ArityError):
            TemplateDependency(schema, [(v, v)], (v, v, v))

    def test_non_variable_term_rejected(self, schema):
        v = Variable("v")
        with pytest.raises(DependencyError):
            TemplateDependency(schema, [(v, v, "oops")], (v, v, v))


class TestStructure:
    def test_universal_variables(self, schema):
        td = make_fig1(schema)
        names = {variable.name for variable in td.universal_variables()}
        assert names == {"a", "b", "c", "b2", "c2"}

    def test_existential_variables(self, schema):
        td = make_fig1(schema)
        names = {variable.name for variable in td.existential_variables()}
        assert names == {"a*"}

    def test_conclusions_tuple_matches_eid_protocol(self, schema):
        td = make_fig1(schema)
        assert td.conclusions == (td.conclusion,)

    def test_column_of(self, schema):
        td = make_fig1(schema)
        assert td.column_of(Variable("b")) == 1

    def test_column_of_unknown_variable(self, schema):
        td = make_fig1(schema)
        with pytest.raises(DependencyError):
            td.column_of(Variable("zzz"))


class TestClassification:
    def test_embedded(self, schema):
        td = make_fig1(schema)
        assert td.is_embedded()
        assert not td.is_full()

    def test_full(self, schema):
        a, b, c, b2 = (Variable(n) for n in "a b c b2".split())
        td = TemplateDependency(schema, [(a, b, c), (a, b2, c)], (a, b2, c))
        assert td.is_full()

    def test_typed(self, schema):
        assert make_fig1(schema).is_typed()

    def test_untyped_detected(self):
        schema = Schema(["A", "B"])
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        td = TemplateDependency(schema, [(x, y), (y, z)], (x, z))
        assert not td.is_typed()
        with pytest.raises(TypingError):
            td.validate_typed()

    def test_trivial_conclusion_is_antecedent(self, schema):
        a, b, c = Variable("a"), Variable("b"), Variable("c")
        td = TemplateDependency(schema, [(a, b, c)], (a, b, c))
        assert td.is_trivial()

    def test_trivial_via_existentials(self, schema):
        a, b, c = Variable("a"), Variable("b"), Variable("c")
        star = Variable("s*")
        td = TemplateDependency(schema, [(a, b, c)], (star, b, c))
        assert td.is_trivial()  # map s* to a

    def test_nontrivial(self, schema):
        assert not make_fig1(schema).is_trivial()


class TestSemantics:
    def test_holds_in_satisfying_instance(self, schema):
        td = make_fig1(schema)
        a1, b1, c1 = Const("a1"), Const("b1"), Const("c1")
        instance = Instance(schema, [(a1, b1, c1)])
        assert td.holds_in(instance)  # single row: conclusion = that row

    def test_violation_found(self, schema):
        td = make_fig1(schema)
        a1 = Const("a1")
        b1, b2 = Const("b1"), Const("b2")
        c1, c2 = Const("c1"), Const("c2")
        instance = Instance(schema, [(a1, b1, c1), (a1, b2, c2)])
        witness = td.find_violation(instance)
        assert witness is not None
        # The violated match binds b to b1 and c2 to c2 (some orientation).
        assert set(witness) <= td.universal_variables()

    def test_empty_instance_vacuously_satisfies(self, schema):
        assert make_fig1(schema).holds_in(Instance(schema))

    def test_holds_after_adding_witness(self, schema):
        td = make_fig1(schema)
        a1, a2 = Const("a1"), Const("a2")
        b1, b2 = Const("b1"), Const("b2")
        c1, c2 = Const("c1"), Const("c2")
        instance = Instance(
            schema,
            [(a1, b1, c1), (a1, b2, c2), (a2, b1, c2), (a2, b2, c1)],
        )
        assert td.holds_in(instance)


class TestFreeze:
    def test_freeze_shapes(self, schema):
        td = make_fig1(schema)
        frozen, assignment = td.freeze()
        assert len(frozen) == 2
        assert set(assignment) == td.universal_variables()

    def test_freeze_is_deterministic(self, schema):
        td = make_fig1(schema)
        first, __ = td.freeze()
        second, __ = td.freeze()
        assert first == second

    def test_frozen_constants_distinct(self, schema):
        td = make_fig1(schema)
        __, assignment = td.freeze()
        assert len(set(assignment.values())) == len(assignment)

    def test_freeze_with_fresh_uses_labelled_nulls(self, schema):
        """Regression: ``freeze(fresh=...)`` used to silently discard the
        factory and hand back frozen constants."""
        from repro.relational.values import LabeledNull, NullFactory

        td = make_fig1(schema)
        frozen, assignment = td.freeze(fresh=NullFactory())
        assert set(assignment) == td.universal_variables()
        assert all(
            isinstance(value, LabeledNull) for value in assignment.values()
        )
        assert len(set(assignment.values())) == len(assignment)  # distinct
        for row in frozen:
            assert all(isinstance(value, LabeledNull) for value in row)
        # The nulls really come from the caller's factory (labels advance).
        factory = NullFactory(start=100)
        __, null_assignment = td.freeze(fresh=factory)
        assert {value.label for value in null_assignment.values()} == set(
            range(100, 100 + len(null_assignment))
        )

    def test_freeze_default_still_constants(self, schema):
        from repro.relational.values import Const

        td = make_fig1(schema)
        __, assignment = td.freeze()
        assert all(isinstance(value, Const) for value in assignment.values())


class TestTransformations:
    def test_rename(self, schema):
        td = make_fig1(schema)
        renamed = td.rename({Variable("a"): Variable("supplier")})
        assert Variable("supplier") in renamed.universal_variables()
        assert Variable("a") not in renamed.universal_variables()

    def test_structurally_equal_under_renaming(self, schema):
        td = make_fig1(schema)
        renamed = td.rename(
            {Variable("a"): Variable("zzz"), Variable("b2"): Variable("qqq")}
        )
        assert td.structurally_equal(renamed)

    def test_structurally_equal_under_reordering(self, schema):
        td = make_fig1(schema)
        reordered = TemplateDependency(
            schema, [td.antecedents[1], td.antecedents[0]], td.conclusion
        )
        assert td.structurally_equal(reordered)

    def test_structurally_different(self, schema):
        td = make_fig1(schema)
        a, b, c = Variable("a"), Variable("b"), Variable("c")
        other = TemplateDependency(schema, [(a, b, c)], (a, b, c))
        assert not td.structurally_equal(other)

    def test_canonical_idempotent(self, schema):
        td = make_fig1(schema)
        assert td.canonical().canonical() == td.canonical()

    def test_str_round_trips_via_parser(self, schema):
        from repro.dependencies.parser import parse_td

        td = make_fig1(schema)
        # a* is not a valid variable start in str() output? It is: name 'a*'.
        reparsed = parse_td(str(td), schema)
        assert reparsed.structurally_equal(td)

    def test_equality_and_hash(self, schema):
        assert make_fig1(schema) == make_fig1(schema)
        assert hash(make_fig1(schema)) == hash(make_fig1(schema))

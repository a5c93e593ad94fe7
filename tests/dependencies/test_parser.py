"""Unit tests for repro.dependencies.parser."""

import pytest

from repro.dependencies.eid import EmbeddedImplicationalDependency
from repro.dependencies.parser import parse_dependency, parse_td
from repro.dependencies.template import TemplateDependency
from repro.errors import ParseError
from repro.relational.schema import Schema


class TestBasicParsing:
    def test_simple_td(self):
        td = parse_td("R(x, y) & R(y, z) -> R(x, z)")
        assert isinstance(td, TemplateDependency)
        assert len(td.antecedents) == 2
        assert td.schema.arity == 2

    def test_fat_arrow(self):
        td = parse_td("R(x, y) => R(y, x)")
        assert len(td.antecedents) == 1

    def test_whitespace_insensitive(self):
        td = parse_td("  R( x ,y )&R(y,z)->R( x , z )  ")
        assert len(td.antecedents) == 2

    def test_primes_and_stars_in_names(self):
        td = parse_td("R(a, b, c) & R(a, b', c') -> R(a*, b, c')")
        names = {v.name for v in td.variables()}
        assert {"a", "b'", "c'", "a*"} <= names

    def test_existential_detected(self):
        td = parse_td("R(x, y) -> R(x, z)")
        assert {v.name for v in td.existential_variables()} == {"z"}

    def test_default_schema_names(self):
        td = parse_td("R(x, y, z) -> R(x, y, z)")
        assert td.schema.attributes == ("A1", "A2", "A3")

    def test_explicit_schema(self):
        schema = Schema(["FROM", "TO"])
        td = parse_td("R(x, y) -> R(y, x)", schema)
        assert td.schema is schema


class TestEidParsing:
    def test_multi_atom_conclusion_is_eid(self):
        dep = parse_dependency("R(a, b) & R(a, c) -> R(d, b) & R(d, c)")
        assert isinstance(dep, EmbeddedImplicationalDependency)
        assert len(dep.conclusions) == 2

    def test_parse_td_rejects_eid(self):
        with pytest.raises(ParseError):
            parse_td("R(a, b) -> R(c, a) & R(c, b)")

    def test_single_atom_dependency_is_td(self):
        dep = parse_dependency("R(a, b) -> R(b, a)")
        assert isinstance(dep, TemplateDependency)


class TestErrors:
    def test_missing_arrow(self):
        with pytest.raises(ParseError):
            parse_td("R(x, y) & R(y, z)")

    def test_bad_atom(self):
        with pytest.raises(ParseError):
            parse_td("R(x, y & R(y, z) -> R(x, z)")

    def test_mixed_relation_names(self):
        with pytest.raises(ParseError):
            parse_td("R(x, y) & S(y, z) -> R(x, z)")

    def test_mixed_relation_across_arrow(self):
        with pytest.raises(ParseError):
            parse_td("R(x, y) -> S(y, x)")

    def test_inconsistent_arity(self):
        with pytest.raises(ParseError):
            parse_td("R(x, y) -> R(x, y, z)")

    def test_schema_arity_mismatch(self):
        with pytest.raises(ParseError):
            parse_td("R(x, y) -> R(y, x)", Schema(["A", "B", "C"]))

    def test_bad_variable_name(self):
        with pytest.raises(ParseError):
            parse_td("R(x, 1bad) -> R(x, x)")

    def test_empty_variable(self):
        with pytest.raises(ParseError):
            parse_td("R(x, ) -> R(x, x)")


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "R(x, y) & R(y, z) -> R(x, z)",
            "R(a, b, c) & R(a, b', c') -> R(a*, b, c')",
            "R(u, v) -> R(v, w)",
        ],
    )
    def test_str_then_parse(self, text):
        td = parse_td(text)
        assert parse_td(str(td), td.schema).structurally_equal(td)


class TestEncoderSyntax:
    def test_attribute_at_node_names(self):
        td = parse_td("R(E@3, A0''@1, 0'@*) & R(E@3, A0''@2, 0'@5) -> R(E@*, A0''@1, 0'@*)")
        assert {v.name for v in td.universal_variables()} == {
            "E@3", "A0''@1", "A0''@2", "0'@*", "0'@5"
        }
        assert {v.name for v in td.existential_variables()} == {"E@*"}

    def test_label_names_the_dependency(self):
        td = parse_td("D1[A0.0=0]: R(E@2, E'@1) -> R(E@*, E'@1)")
        assert td.name == "D1[A0.0=0]"
        assert parse_td("D0 : R(x, y) -> R(y, x)").name == "D0"
        assert parse_td("R(x, y) -> R(y, x)").name is None

    @pytest.mark.parametrize(
        "text",
        [
            "R(x, E@) -> R(x, x)",  # no node
            "R(x, E@3a) -> R(x, x)",  # node is digits or *
            "R(x, E'''@3) -> R(x, x)",  # at most two primes
            "R(x, @3) -> R(x, x)",  # no attribute
            "D1[a b]: R(x, y) -> R(y, x)",  # whitespace in the label
            ": R(x, y) -> R(y, x)",  # empty label
        ],
    )
    def test_malformed_encoder_syntax_rejected(self, text):
        with pytest.raises(ParseError):
            parse_td(text)

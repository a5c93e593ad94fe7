"""Tests for the command-line interface."""

import json
import re

import pytest

from repro.analysis import prune_for_target
from repro.cli import EXIT_DISPROVED, EXIT_PROVED, EXIT_UNKNOWN, EXIT_USAGE, main
from repro.dependencies.parser import parse_dependency
from repro.io.textfmt import parse_dependency_file
from repro.reduction.encode import encode
from repro.workloads.instances import negative_family


@pytest.fixture
def deps_file(tmp_path):
    path = tmp_path / "deps.txt"
    path.write_text("R(x, y) & R(y, z) -> R(x, z)\n")
    return str(path)


@pytest.fixture
def positive_file(tmp_path):
    path = tmp_path / "positive.txt"
    path.write_text(
        "letters: A0 0\nA0 A0 = A0\nA0 A0 = 0\n"
    )
    return str(path)


@pytest.fixture
def negative_file(tmp_path):
    path = tmp_path / "negative.txt"
    path.write_text("letters: A0 0\n")
    return str(path)


class TestInfer:
    def test_proved(self, deps_file, capsys):
        code = main(
            ["infer", "--deps", deps_file, "R(x,y) & R(y,z) & R(z,w) -> R(x,w)"]
        )
        assert code == EXIT_PROVED
        assert "proved" in capsys.readouterr().out

    def test_disproved_with_counterexample(self, deps_file, capsys):
        code = main(["infer", "--deps", deps_file, "R(x,y) -> R(y,x)"])
        assert code == EXIT_DISPROVED
        output = capsys.readouterr().out
        assert "disproved" in output
        assert "counterexample database" in output

    def test_finite_semantics_flag(self, deps_file, capsys):
        code = main(
            [
                "infer",
                "--deps",
                deps_file,
                "--semantics",
                "finite",
                "R(x,y) & R(y,z) & R(z,w) -> R(x,w)",
            ]
        )
        assert code == EXIT_PROVED
        assert "finite" in capsys.readouterr().out

    def test_missing_file_is_usage_error(self, capsys):
        code = main(["infer", "--deps", "/nonexistent", "R(x,y) -> R(y,x)"])
        assert code == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_dump_proof_certificate(self, deps_file, tmp_path, capsys):
        import json

        from repro.io.json_codec import trace_from_json

        cert = tmp_path / "proof.json"
        code = main(
            [
                "infer",
                "--deps",
                deps_file,
                "--dump-certificate",
                str(cert),
                "R(x,y) & R(y,z) & R(z,w) -> R(x,w)",
            ]
        )
        assert code == EXIT_PROVED
        payload = json.loads(cert.read_text())
        assert payload["kind"] == "chase-proof"
        assert trace_from_json(payload["trace"])  # decodes to real steps

    def test_dump_counterexample_certificate(self, deps_file, tmp_path):
        import json

        from repro.io.json_codec import instance_from_json

        cert = tmp_path / "counter.json"
        code = main(
            [
                "infer",
                "--deps",
                deps_file,
                "--dump-certificate",
                str(cert),
                "R(x,y) -> R(y,x)",
            ]
        )
        assert code == EXIT_DISPROVED
        payload = json.loads(cert.read_text())
        assert payload["kind"] == "finite-counterexample"
        witness = instance_from_json(payload["database"])
        assert len(witness) >= 1


class TestClassify:
    def test_positive(self, positive_file, capsys):
        code = main(["classify", positive_file])
        assert code == EXIT_PROVED
        output = capsys.readouterr().out
        assert "a0_collapses" in output
        assert "derivation" in output

    def test_negative(self, negative_file, capsys):
        code = main(["classify", negative_file])
        assert code == EXIT_DISPROVED
        assert "finitely_refutable" in capsys.readouterr().out

    def test_gap_unknown(self, tmp_path, capsys):
        path = tmp_path / "gap.txt"
        path.write_text("letters: A0 0\nA0 A0 = A0\n")
        code = main(["classify", str(path), "--max-semigroup-size", "4"])
        assert code == EXIT_UNKNOWN
        assert "unknown" in capsys.readouterr().out


class TestEncode:
    def test_sizes(self, negative_file, capsys):
        code = main(["encode", negative_file])
        assert code == EXIT_PROVED
        output = capsys.readouterr().out
        assert "6 attributes" in output
        assert "12 dependencies" in output

    def test_full_listing(self, negative_file, capsys):
        main(["encode", negative_file, "--full"])
        output = capsys.readouterr().out
        assert "D0:" in output
        assert "D1[" in output

    def test_full_listing_round_trips_through_analyze(
        self, negative_file, tmp_path, capsys
    ):
        # negative_file holds negative_family(0); its premise lines, as
        # printed, must analyze exactly like the encoding in process.
        main(["encode", negative_file, "--full"])
        lines = capsys.readouterr().out.splitlines()
        premises = [line for line in lines if re.match(r"D[1-4]\[", line)]
        target = next(line for line in lines if line.startswith("D0: "))
        path = tmp_path / "gl.txt"
        path.write_text("".join(f"{line}\n" for line in premises))
        code = main(["analyze", "--deps", str(path), "--json", "--target", target])
        assert code == EXIT_UNKNOWN
        payload = json.loads(capsys.readouterr().out)

        encoding = encode(negative_family(0))
        parsed = parse_dependency_file(path.read_text())
        assert [(d.name, d.antecedents, d.conclusions) for d in parsed] == [
            (d.name, d.antecedents, d.conclusions) for d in encoding.dependencies
        ]
        assert parse_dependency(target).conclusions == encoding.d0.conclusions
        program = prune_for_target(tuple(encoding.dependencies))
        expected = program.provenance(applied=False, derived=None)
        expected.update(
            position_count=program.report.position_count,
            regular_edges=program.report.regular_edge_count,
            special_edges=program.report.special_edge_count,
            weakly_acyclic=program.report.weakly_acyclic,
            jointly_acyclic=program.report.jointly_acyclic,
        )
        assert payload == expected


class TestDiagram:
    def test_ascii(self, capsys):
        code = main(["diagram", "R(a,b,c) & R(a,b',c') -> R(a*,b,c')"])
        assert code == EXIT_PROVED
        output = capsys.readouterr().out
        assert "nodes: 1, 2, *" in output

    def test_dot(self, capsys):
        main(["diagram", "--dot", "R(a,b,c) & R(a,b',c') -> R(a*,b,c')"])
        assert capsys.readouterr().out.startswith("graph")

    def test_untyped_rejected(self, capsys):
        code = main(["diagram", "R(x,y) & R(y,z) -> R(x,z)"])
        assert code == EXIT_USAGE


class TestDemo:
    def test_demo_runs(self, capsys):
        code = main(["demo"])
        assert code == EXIT_PROVED
        output = capsys.readouterr().out
        assert "direction (A) CONFIRMED" in output
        assert "direction (B) CONFIRMED" in output


class TestServe:
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_max_batch_below_one_is_usage_error(self, value, capsys):
        code = main(["serve", "--port", "0", "--max-batch", value])
        assert code == EXIT_USAGE
        assert "error: --max-batch must be >= 1" in capsys.readouterr().err

"""Tests for the command-line interface."""

import pytest

from repro.cli import EXIT_DISPROVED, EXIT_PROVED, EXIT_UNKNOWN, EXIT_USAGE, main


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

"""The one-pass position facts and derived strata against the graph oracle.

:func:`repro.analysis.positions.position_facts` computes the position
count, both edge counts, the special-cycle witness and the rank without
building a graph, and :attr:`AnalysisReport.strata` derives the strata
from the never-firing indices. :mod:`tests.oracle.analysis` keeps the
multigraph constructions they replaced; the two must agree field for
field (the witness edge for edge) on a corpus of the paper's reductions,
premise shuffles of them, their productive subsets and seeded random
TD/EID sets.

The golden digests pin what users see — ``AnalysisReport.describe`` and
the ``repro analyze --json`` payload — byte for byte. They were computed
on the multigraph implementation before it was removed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from collections import Counter

from repro.analysis import analyze
from repro.analysis.positions import position_facts
from repro.cli import main
from repro.dependencies.template import Variable
from repro.reduction.encode import encode
from repro.workloads.generators import random_eid, random_td
from repro.workloads.instances import negative_family, positive_chain_family

from tests.oracle.analysis import (
    build_position_graph,
    firing_graph_of,
    position_ranks,
    special_cycle_of,
    strata_of,
)

GL_KINDS = (
    ("positive", 1),
    ("positive", 2),
    ("positive", 3),
    ("negative", 0),
    ("negative", 1),
    ("negative", 2),
    ("negative", 3),
)
SHUFFLES = 5
RANDOM_SETS = 1200

#: SHA-256 over ``describe(attributes)`` for every corpus entry.
DESCRIBE_DIGEST = "32895774eba2df7b235642f460285bee487926810d0a6dd4f1f96546c3c062c6"
#: SHA-256 over the ``repro analyze --json`` stdout and exit code for the
#: unshuffled GL encodings and the random sets.
CLI_DIGEST = "18fed83e791fed34b173fa62f2a99f5255421c9011c73678872d2f9e1418aab2"


def _random_set(seed: int) -> tuple:
    """A seeded random TD/EID set of arity 2–5; the existential
    probability varies by draw, so the corpus mixes full, weakly acyclic
    and cyclic sets."""
    rng = random.Random(f"position-facts-{seed}")
    arity = rng.choice((2, 3, 4, 5))
    probability = rng.choice((0.05, 0.1, 0.15, 0.2, 0.3))
    dependencies = []
    for __ in range(rng.randint(1, 5)):
        shape = dict(
            arity=arity,
            antecedents=rng.randint(1, 3),
            variables_per_column=rng.randint(1, 2),
            existential_probability=probability,
            seed=rng.randrange(1 << 30),
        )
        if rng.random() < 0.4:
            dependencies.append(random_eid(conclusions=rng.randint(1, 2), **shape))
        else:
            dependencies.append(random_td(**shape))
    return tuple(dependencies)


def _gl_encoding(family: str, k: int):
    families = {"positive": positive_chain_family, "negative": negative_family}
    return encode(families[family](k))


def _productive(dependencies: tuple) -> tuple:
    never = set(analyze(dependencies).never_firing)
    return tuple(
        dependency
        for index, dependency in enumerate(dependencies)
        if index not in never
    )


def _gl_corpus():
    """(label, dependencies, attributes) for every GL variant."""
    for family, k in GL_KINDS:
        encoding = _gl_encoding(family, k)
        attributes = list(encoding.reduction_schema.schema.attributes)
        orders = [("declared", tuple(encoding.dependencies))]
        for shuffle in range(SHUFFLES):
            rng = random.Random(f"position-facts-{family}-{k}-{shuffle}")
            premises = list(encoding.dependencies)
            rng.shuffle(premises)
            orders.append((f"shuffle-{shuffle}", tuple(premises)))
        for order, dependencies in orders:
            label = f"{family}-{k}-{order}"
            yield label, dependencies, attributes
            yield f"{label}-productive", _productive(dependencies), attributes


def _random_corpus():
    for seed in range(RANDOM_SETS):
        dependencies = _random_set(seed)
        yield f"random-{seed}", dependencies, list(dependencies[0].schema.attributes)


def _corpus():
    yield from _gl_corpus()
    yield from _random_corpus()


def describe_digest() -> str:
    digest = hashlib.sha256()
    for label, dependencies, attributes in _corpus():
        digest.update(label.encode())
        digest.update(analyze(dependencies).describe(attributes).encode())
    return digest.hexdigest()


def _parseable(dependency):
    """The GL encodings name variables ``E@3``, ``0'@*``, which the
    dependency parser rejects; rename each to a parseable hex name."""
    return dependency.rename(
        {
            variable: Variable("v" + variable.name.encode().hex())
            for variable in dependency.variables()
        }
    )


def cli_digest(tmp_path) -> str:
    """``repro analyze --json`` over a file holding each set, one per line."""
    path = tmp_path / "deps.txt"
    sets = [
        (
            f"{family}-{k}",
            tuple(map(_parseable, _gl_encoding(family, k).dependencies)),
        )
        for family, k in GL_KINDS
    ]
    sets += [(label, dependencies) for label, dependencies, __ in _random_corpus()]
    digest = hashlib.sha256()
    for label, dependencies in sets:
        path.write_text("".join(f"{dependency}\n" for dependency in dependencies))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["analyze", "--deps", str(path), "--json"])
        digest.update(f"{label}:{code}\n".encode())
        digest.update(out.getvalue().encode())
    return digest.hexdigest()


class TestDifferentialAgainstGraphOracle:
    def test_corpus_agrees(self):
        mix = Counter()
        for label, dependencies, __ in _corpus():
            facts = position_facts(dependencies)
            graph = build_position_graph(dependencies)
            special = sum(
                1 for *__, data in graph.edges(data=True) if data.get("special")
            )
            assert facts.position_count == graph.number_of_nodes(), label
            assert facts.special_edge_count == special, label
            assert (
                facts.regular_edge_count == graph.number_of_edges() - special
            ), label
            cycle = special_cycle_of(graph)
            assert facts.special_cycle == (tuple(cycle) if cycle else None), label
            if cycle is None:
                ranks = position_ranks(graph)
                assert facts.rank == max(ranks.values(), default=0), label
                mix["weakly acyclic"] += 1
                mix[f"rank {min(facts.rank, 2)}"] += 1
            else:
                assert facts.rank is None, label
                mix[f"witness {min(len(cycle), 3)}"] += 1

            report = analyze(dependencies)
            fires = [
                index not in report.never_firing
                for index in range(len(dependencies))
            ]
            assert report.strata == strata_of(firing_graph_of(fires)), label
            assert report.special_cycle == facts.special_cycle, label
            assert report.weakly_acyclic is (cycle is None), label
            mix["entries"] += 1
        # The corpus must reach every branch: weakly acyclic sets of
        # rank 0, 1 and deeper, and witnesses that close over a path.
        assert mix["weakly acyclic"] >= 0.3 * mix["entries"], mix
        assert mix["rank 0"] and mix["rank 1"] and mix["rank 2"], mix
        assert mix["witness 1"] and mix["witness 2"] and mix["witness 3"], mix


class TestGoldenDigests:
    def test_describe_digest(self):
        assert describe_digest() == DESCRIBE_DIGEST

    def test_cli_json_digest(self, tmp_path):
        assert cli_digest(tmp_path) == CLI_DIGEST


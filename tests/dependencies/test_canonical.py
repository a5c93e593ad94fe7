"""Tests for repro.dependencies.canonical."""

import hashlib
import json
import random
from array import array
from collections import Counter

import pytest

from repro.dependencies import canonical
from repro.dependencies.canonical import (
    canonical_key,
    canonicalize,
    dependency_fingerprint,
    premise_key,
    query_fingerprint,
    query_key,
)
from repro.dependencies.eid import EmbeddedImplicationalDependency
from repro.dependencies.parser import parse_dependency, parse_td
from repro.dependencies.template import TemplateDependency, Variable
from repro.reduction.encode import encode
from repro.relational.schema import Schema
from repro.workloads.generators import disguise, inference_workload, random_td
from repro.workloads.instances import negative_family, positive_chain_family

from tests.oracle import canonical as oracle

EDGE = Schema(["FROM", "TO"])


def isomorphic(left, right) -> bool:
    """Brute force: is there a variable bijection mapping each block onto the other?

    Tries every assignment of ``left``'s variables to ``right``'s, in
    first-occurrence order, and accepts one under which the antecedent
    and conclusion atom *multisets* coincide. The only pruning is that
    an atom whose variables are all assigned must map into the matching
    block of ``right``. Independent of the labelling under test.
    """
    if left.schema != right.schema:
        return False
    left_blocks = (left.antecedents, left.conclusions)
    right_blocks = (Counter(right.antecedents), Counter(right.conclusions))
    if [len(block) for block in left_blocks] != [len(right.antecedents), len(right.conclusions)]:
        return False
    order = list(dict.fromkeys(v for block in left_blocks for atom in block for v in atom))
    images = list(dict.fromkeys(v for block in right_blocks for atom in block for v in atom))
    if len(order) != len(images):
        return False
    position = {variable: index for index, variable in enumerate(order)}
    closed_by: list[list[tuple[int, tuple]]] = [[] for __ in order]
    for block, atoms in enumerate(left_blocks):
        for atom in atoms:
            closed_by[max(position[v] for v in atom)].append((block, atom))
    mapping: dict = {}

    def extend(index: int) -> bool:
        if index == len(order):
            return all(
                Counter(tuple(mapping[v] for v in atom) for atom in atoms) == counts
                for atoms, counts in zip(left_blocks, right_blocks)
            )
        for image in images:
            if image in mapping.values():
                continue
            mapping[order[index]] = image
            if all(
                tuple(mapping[v] for v in atom) in right_blocks[block]
                for block, atom in closed_by[index]
            ) and extend(index + 1):
                return True
            del mapping[order[index]]
        return False

    return extend(0)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def variables_of(dependency) -> list[Variable]:
    return sorted({v for atom in dependency.atoms() for v in atom}, key=lambda v: v.name)


def shuffled(dependency, seed: int):
    """Rename every variable and shuffle both conjunctions."""
    rng = random.Random(seed)
    names = variables_of(dependency)
    fresh = [Variable(f"s{seed}_{index}") for index in range(len(names))]
    rng.shuffle(fresh)
    mapping = dict(zip(names, fresh))

    def rename(atoms):
        atoms = [tuple(mapping[v] for v in atom) for atom in atoms]
        rng.shuffle(atoms)
        return atoms

    if isinstance(dependency, TemplateDependency):
        return TemplateDependency(
            dependency.schema, rename(dependency.antecedents), rename([dependency.conclusion])[0]
        )
    return EmbeddedImplicationalDependency(
        dependency.schema, rename(dependency.antecedents), rename(dependency.conclusions)
    )


def random_eid(seed: int, conclusions: int = 2) -> EmbeddedImplicationalDependency:
    """A small random EID over a binary schema, conclusions sharing fresh variables."""
    rng = random.Random(seed)
    pool = [Variable(f"x{index}") for index in range(4)]
    fresh = [Variable(f"e{index}") for index in range(2)]
    antecedents = [(rng.choice(pool), rng.choice(pool)) for __ in range(rng.randint(1, 3))]
    used = sorted({v for atom in antecedents for v in atom}, key=lambda v: v.name)
    conclusion_pool = used + fresh
    conclusion_atoms = [
        (rng.choice(conclusion_pool), rng.choice(conclusion_pool)) for __ in range(conclusions)
    ]
    return EmbeddedImplicationalDependency(EDGE, antecedents, conclusion_atoms)


def repeated_atom_td(seed: int) -> TemplateDependency:
    """A random TD whose antecedent repeats some of its atoms."""
    rng = random.Random(seed)
    pool = [Variable(f"x{index}") for index in range(3)]
    distinct = [(rng.choice(pool), rng.choice(pool)) for __ in range(rng.randint(1, 3))]
    antecedents = distinct + [rng.choice(distinct) for __ in range(rng.randint(0, 2))]
    return TemplateDependency(EDGE, antecedents, (rng.choice(pool), Variable("e")))


def edges(*cycles: int, symmetric: bool = False) -> list[tuple[Variable, Variable]]:
    """The edge atoms of disjoint directed (or symmetric) cycles of the given lengths."""
    atoms = []
    start = 0
    for length in cycles:
        ring = [Variable(f"n{start + offset}") for offset in range(length)]
        for offset, node in enumerate(ring):
            successor = ring[(offset + 1) % length]
            atoms.append((node, successor))
            if symmetric:
                atoms.append((successor, node))
        start += length
    return atoms


def symmetric_td(atoms) -> TemplateDependency:
    """``atoms`` as an antecedent under a conclusion on two fresh variables.

    The conclusion touches no antecedent variable, so it breaks none of
    the antecedent's symmetry.
    """
    return TemplateDependency(EDGE, atoms, (Variable("u"), Variable("w")))


def clique(size: int) -> TemplateDependency:
    nodes = [Variable(f"k{index}") for index in range(size)]
    return symmetric_td([(a, b) for a in nodes for b in nodes if a != b])


def refinement_colours(*dependencies) -> list[Counter]:
    """Colour refinement (1-WL) run jointly; each dependency's colour histogram.

    Colours are ranked in one table shared by all the dependencies, so
    equal histograms mean colour refinement alone cannot tell them apart.
    """
    graphs = []
    for dependency in dependencies:
        blocks = (dependency.antecedents, dependency.conclusions)
        graphs.append((blocks, {variable: 0 for variable in variables_of(dependency)}))
    total = sum(len(colour) for __, colour in graphs)
    for __ in range(total):
        signatures = []
        for blocks, colour in graphs:
            occurrences: dict = {variable: [] for variable in colour}
            for block, atoms in enumerate(blocks):
                for atom in atoms:
                    tuple_ = tuple(colour[v] for v in atom)
                    for column, variable in enumerate(atom):
                        occurrences[variable].append((block, column, tuple_))
            signatures.append(
                {v: (colour[v], tuple(sorted(occurrences[v]))) for v in colour}
            )
        rank = {
            signature: position
            for position, signature in enumerate(
                sorted({s for table in signatures for s in table.values()})
            )
        }
        for (__, colour), table in zip(graphs, signatures):
            for variable, signature in table.items():
                colour[variable] = rank[signature]
    return [Counter(colour.values()) for __, colour in graphs]


@pytest.fixture
def transitivity():
    return parse_td("R(x, y) & R(y, z) -> R(x, z)")


class TestDependencyFingerprint:
    def test_invariant_under_renaming(self, transitivity):
        renamed = parse_td("R(u, v) & R(v, w) -> R(u, w)")
        assert dependency_fingerprint(transitivity) == dependency_fingerprint(renamed)

    def test_invariant_under_antecedent_reordering(self, transitivity):
        reordered = parse_td("R(y, z) & R(x, y) -> R(x, z)")
        assert dependency_fingerprint(transitivity) == dependency_fingerprint(reordered)

    def test_invariant_under_disguise_of_random_tds(self):
        for seed in range(25):
            dependency = random_td(seed=seed)
            copy = disguise(dependency, seed=seed + 1)
            assert dependency_fingerprint(dependency) == dependency_fingerprint(copy)

    def test_distinguishes_different_dependencies(self, transitivity):
        symmetry = parse_td("R(x, y) -> R(y, x)")
        assert dependency_fingerprint(transitivity) != dependency_fingerprint(symmetry)

    def test_distinguishes_structurally_distinct_random_tds(self):
        fingerprints = {
            dependency_fingerprint(random_td(seed=seed, antecedents=4))
            for seed in range(20)
        }
        assert len(fingerprints) > 1

    def test_schema_is_part_of_the_key(self, transitivity):
        other_schema = parse_td(
            "R(x, y) & R(y, z) -> R(x, z)", Schema(["SRC", "DST"])
        )
        assert dependency_fingerprint(transitivity) != dependency_fingerprint(
            other_schema
        )

    def test_td_and_single_conclusion_eid_share_a_key(self, transitivity):
        eid = EmbeddedImplicationalDependency(
            transitivity.schema,
            transitivity.antecedents,
            (transitivity.conclusion,),
        )
        assert canonical_key(transitivity) == canonical_key(eid)

    def test_eid_conclusion_order_does_not_matter(self):
        schema = Schema(["A", "B"])
        one = parse_dependency("R(x, y) -> R(w, x) & R(w, y)", schema)
        two = parse_dependency("R(x, y) -> R(w, y) & R(w, x)", schema)
        assert dependency_fingerprint(one) == dependency_fingerprint(two)


class TestCanonicalize:
    def test_round_trip_is_structurally_equal(self, transitivity):
        canonical = canonicalize(transitivity)
        assert transitivity.structurally_equal(canonical)

    def test_disguised_copies_canonicalize_identically(self):
        for seed in range(10):
            dependency = random_td(seed=seed)
            copy = disguise(dependency, seed=seed + 7)
            assert canonicalize(dependency) == canonicalize(copy)

    def test_idempotent(self, transitivity):
        once = canonicalize(transitivity)
        assert canonicalize(once) == once


class TestQueryFingerprint:
    def test_invariant_under_premise_order_and_duplicates(self, transitivity):
        symmetry = parse_td("R(x, y) -> R(y, x)")
        target = parse_td("R(a, b) & R(b, c) -> R(a, c)")
        baseline = query_fingerprint([transitivity, symmetry], target)
        assert query_fingerprint([symmetry, transitivity], target) == baseline
        assert (
            query_fingerprint([symmetry, transitivity, symmetry], target) == baseline
        )

    def test_invariant_under_renaming_everywhere(self, transitivity):
        target = parse_td("R(a, b) & R(b, c) & R(c, d) -> R(a, d)")
        renamed_deps = [parse_td("R(p, q) & R(q, r) -> R(p, r)")]
        renamed_target = parse_td("R(k, l) & R(l, m) & R(m, n) -> R(k, n)")
        assert query_fingerprint([transitivity], target) == query_fingerprint(
            renamed_deps, renamed_target
        )

    def test_target_matters(self, transitivity):
        provable = parse_td("R(a, b) & R(b, c) -> R(a, c)")
        refutable = parse_td("R(a, b) -> R(b, a)")
        assert query_fingerprint([transitivity], provable) != query_fingerprint(
            [transitivity], refutable
        )

    def test_premises_matter(self, transitivity):
        target = parse_td("R(a, b) -> R(b, a)")
        assert query_fingerprint([transitivity], target) != query_fingerprint(
            [], target
        )

    def test_key_is_json_stable(self, transitivity):
        target = parse_td("R(a, b) -> R(b, a)")
        key = query_key([transitivity], target)
        assert key == query_key([transitivity], target)


def assert_keys_match_isomorphism(dependencies) -> None:
    keys = [canonical_key(dependency) for dependency in dependencies]
    for left, left_key in zip(dependencies, keys):
        for right, right_key in zip(dependencies, keys):
            assert (left_key == right_key) == isomorphic(left, right), (left, right)


class TestAgainstBruteForceIsomorphism:
    """``key(a) == key(b)`` exactly when a brute-force search finds an isomorphism."""

    def test_oracle_sanity(self, transitivity):
        assert isomorphic(transitivity, parse_td("R(u, v) & R(v, w) -> R(u, w)"))
        assert not isomorphic(transitivity, parse_td("R(u, v) & R(v, w) -> R(w, u)"))
        assert not isomorphic(
            parse_td("R(x, y) -> R(x, y)"), parse_td("R(x, y) & R(x, y) -> R(x, y)")
        )

    def test_random_tds(self):
        tds = [
            random_td(seed=seed, arity=2 + seed % 2, antecedents=2 + seed % 3)
            for seed in range(30)
        ]
        tds += [disguise(td, seed=300 + index) for index, td in enumerate(tds[:15])]
        assert_keys_match_isomorphism(tds)

    def test_structural_equality_agrees(self):
        tds = [random_td(seed=seed, antecedents=3) for seed in range(12)]
        tds += [disguise(td, seed=90 + index) for index, td in enumerate(tds[:6])]
        for left in tds:
            for right in tds:
                assert left.structurally_equal(right) == isomorphic(left, right)

    def test_two_conclusion_eids(self):
        eids = [random_eid(seed) for seed in range(40)]
        eids += [shuffled(eid, seed=500 + index) for index, eid in enumerate(eids[:20])]
        assert_keys_match_isomorphism(eids)

    def test_antecedents_with_repeated_atoms(self):
        tds = [repeated_atom_td(seed) for seed in range(40)]
        tds += [shuffled(td, seed=700 + index) for index, td in enumerate(tds[:20])]
        assert_keys_match_isomorphism(tds)

    def test_canonical_form_is_an_isomorphic_copy(self):
        dependencies = [random_td(seed=seed) for seed in range(10)]
        dependencies += [random_eid(seed) for seed in range(10)]
        dependencies += [repeated_atom_td(seed) for seed in range(10)]
        for dependency in dependencies:
            assert isomorphic(canonicalize(dependency), dependency)


#: Pairs colour refinement gives identical colour histograms.
REFINEMENT_TWINS = [
    (edges(6), edges(3, 3)),
    (edges(12), edges(6, 6)),
    (edges(12), edges(4, 4, 4)),
    (edges(12), edges(5, 7)),
    (edges(8, symmetric=True), edges(3, 5, symmetric=True)),
    (edges(8, symmetric=True), edges(4, 4, symmetric=True)),
    (edges(6, symmetric=True), edges(3, 3, symmetric=True)),
]


class TestBeyondColourRefinement:
    """Inputs where 1-WL alone is stuck, so individualization must decide."""

    @pytest.mark.parametrize("left, right", REFINEMENT_TWINS)
    def test_refinement_twins_get_different_keys(self, left, right):
        left, right = symmetric_td(left), symmetric_td(right)
        left_colours, right_colours = refinement_colours(left, right)
        assert left_colours == right_colours
        assert not isomorphic(left, right)
        assert canonical_key(left) != canonical_key(right)

    def test_two_regular_family_keys_are_pairwise_distinct(self):
        family = [
            symmetric_td(edges(*lengths))
            for lengths in [(12,), (6, 6), (4, 4, 4), (3, 3, 3, 3), (5, 7), (3, 4, 5), (3, 9)]
        ]
        assert len({canonical_key(td) for td in family}) == len(family)

    @pytest.mark.parametrize(
        "dependency",
        [
            clique(5),
            symmetric_td(edges(12)),
            symmetric_td(edges(12, symmetric=True)),
            # One colour class, two orbits: which member the search
            # individualizes first must not matter.
            symmetric_td(edges(6, 3, 3)),
            symmetric_td(edges(4, 3, symmetric=True)),
        ],
        ids=["clique-5", "12-cycle", "symmetric-12-cycle", "6+3+3-cycles", "4+3-cycles"],
    )
    def test_disguised_symmetric_copies_share_one_key(self, dependency):
        keys = {canonical_key(disguise(dependency, seed=seed)) for seed in range(8)}
        keys.add(canonical_key(dependency))
        assert len(keys) == 1


@pytest.fixture
def fresh_shape_memo(monkeypatch):
    """An empty shape memo for the test; the process-wide one is restored after."""
    memo: dict = {}
    monkeypatch.setattr(canonical, "_SHAPE_CACHE", memo)
    return memo


class TestNodeBudget:
    """A spent budget may split a key class but never conflate two.

    Every test runs on a fresh shape memo: a shape labelled under the full
    budget would otherwise mask the degraded path, and a degraded one
    would outlive the patched budget.
    """

    @pytest.fixture(autouse=True)
    def _fresh_memo(self, fresh_shape_memo):
        return fresh_shape_memo

    SYMMETRIC = [
        clique(5),
        symmetric_td(edges(12)),
        symmetric_td(edges(3, 3)),
        symmetric_td(edges(4, 4, symmetric=True)),
        symmetric_td([(Variable(f"a{i}"), Variable(f"b{i}")) for i in range(5)]),
    ]

    @pytest.mark.parametrize("dependency", SYMMETRIC)
    def test_degraded_canonical_form_is_an_isomorphic_copy(self, monkeypatch, dependency):
        monkeypatch.setattr(canonical, "_NODE_BUDGET", 1)
        for seed in range(4):
            copy = disguise(dependency, seed=seed)
            assert isomorphic(canonicalize(copy), dependency)

    @pytest.mark.parametrize("dependency", SYMMETRIC)
    def test_degraded_key_does_not_depend_on_memo_state(
        self, monkeypatch, fresh_shape_memo, dependency
    ):
        # A spent budget's leaf follows the memo key's order, and the
        # search runs on the key's own copy, so a disguise gets one key
        # whichever disguises were labelled before it.
        monkeypatch.setattr(canonical, "_NODE_BUDGET", 1)
        copies = [disguise(dependency, seed=seed) for seed in range(8)]
        cold = []
        for copy in copies:
            fresh_shape_memo.clear()
            cold.append(canonical_key(copy))
        fresh_shape_memo.clear()
        assert [canonical_key(copy) for copy in reversed(copies)] == cold[::-1]
        assert [canonical_key(copy) for copy in copies] == cold

    @pytest.mark.parametrize("left, right", REFINEMENT_TWINS)
    def test_degraded_keys_still_separate_refinement_twins(self, monkeypatch, left, right):
        monkeypatch.setattr(canonical, "_NODE_BUDGET", 1)
        assert canonical_key(symmetric_td(left)) != canonical_key(symmetric_td(right))


def memo_corpus() -> list:
    """Workload targets, disguised random TDs and the reduction's encodings."""
    corpus = []
    for seed in range(3):
        dependencies, targets = inference_workload(queries=48, seed=seed)
        corpus += dependencies + targets
    tds = [
        random_td(seed=seed, arity=2 + seed % 2, antecedents=2 + seed % 3) for seed in range(20)
    ]
    corpus += tds + [disguise(td, seed=300 + index) for index, td in enumerate(tds)]
    encodings = [encode(positive_chain_family(k)) for k in (1, 2)] + [encode(negative_family(1))]
    for encoding in encodings:
        corpus += list(encoding.dependencies) + [encoding.d0]
    return corpus


def renamed(dependency, tag: str):
    """``dependency`` with every variable renamed, atom order kept."""
    return dependency.rename(
        {variable: Variable(f"{variable.name}_{tag}") for variable in dependency.variables()}
    )


class TestShapeMemo:
    def test_warm_keys_match_cold_keys(self, fresh_shape_memo):
        corpus = memo_corpus()
        cold = []
        for dependency in corpus:
            fresh_shape_memo.clear()
            cold.append(canonical_key(dependency))
        fresh_shape_memo.clear()
        for __ in range(2):
            assert [canonical_key(dependency) for dependency in corpus] == cold

    def test_renamed_copy_hits_without_searching(self, fresh_shape_memo, monkeypatch):
        corpus = [
            dependency
            for dependency in memo_corpus()
            if isinstance(dependency, TemplateDependency)
        ]
        keys = [canonical_key(dependency) for dependency in corpus]
        size = len(fresh_shape_memo)

        def no_search(*__):
            raise AssertionError("a renamed copy must be served from the memo")

        monkeypatch.setattr(canonical, "_search", no_search)
        assert [canonical_key(renamed(dependency, "r")) for dependency in corpus] == keys
        assert len(fresh_shape_memo) == size

    def test_memo_never_exceeds_its_bound(self, fresh_shape_memo, monkeypatch):
        monkeypatch.setattr(canonical, "_SHAPE_CACHE_MAX", 16)
        tds = [random_td(seed=seed, antecedents=2 + seed % 4) for seed in range(80)]
        keys = []
        for td in tds:
            keys.append(canonical_key(td))
            assert len(fresh_shape_memo) <= 16
        # Evicted shapes are relabelled to the same key.
        assert [canonical_key(td) for td in tds] == keys

    def test_digests_hash_the_keys_json(self, fresh_shape_memo):
        # The memoized JSON fragments must spell the keys byte for byte.
        premises, __ = inference_workload(queries=1, seed=0)
        for __ in range(2):
            for dependency in memo_corpus():
                key_json = json.dumps(canonical_key(dependency), separators=(",", ":"))
                assert dependency_fingerprint(dependency) == sha256(key_json)
                query_json = json.dumps(query_key(premises, dependency), separators=(",", ":"))
                assert query_fingerprint(premises, dependency) == sha256(query_json)
                assert query_fingerprint([], dependency) == sha256(f"[[],{key_json}]")

    def test_memo_holds_no_variables(self, fresh_shape_memo):
        for dependency in memo_corpus():
            canonical_key(dependency)
        assert fresh_shape_memo
        assert all(type(key) is bytes for key in fresh_shape_memo)


def oracle_corpus() -> list:
    """The memo corpus, 30 workload batches, random TDs/EIDs and their
    shuffled copies, and every GL encoding of the golden corpus."""
    corpus = memo_corpus()
    for seed in range(30):
        dependencies, targets = inference_workload(
            queries=96, duplicate_fraction=0.35, seed=seed
        )
        corpus += dependencies + targets
    randoms = [
        random_td(seed=seed, arity=2 + seed % 3, antecedents=1 + seed % 5) for seed in range(60)
    ]
    randoms += [random_eid(seed, conclusions=1 + seed % 3) for seed in range(60)]
    corpus += randoms
    corpus += [shuffled(dependency, seed=500 + index) for index, dependency in enumerate(randoms)]
    encodings = [encode(positive_chain_family(k)) for k in range(1, 4)]
    encodings += [encode(negative_family(k)) for k in range(4)]
    for encoding in encodings:
        corpus += list(encoding.dependencies) + [encoding.d0]
    return corpus


def decoded(key: bytes, like):
    """The dependency a memo key spells, over ``like``'s schema and kind."""
    flat = array("I")
    flat.frombytes(key)
    antecedents, arity = flat[0], flat[1]
    atoms = [
        tuple(Variable(f"k{number}") for number in flat[start : start + arity])
        for start in range(2, len(flat), arity)
    ]
    if isinstance(like, TemplateDependency):
        return TemplateDependency(like.schema, atoms[:antecedents], atoms[antecedents])
    return EmbeddedImplicationalDependency(like.schema, atoms[:antecedents], atoms[antecedents:])


class TestAgainstAtomOrderOracle:
    """The atom-order-insensitive memo key changes no canonical key.

    :mod:`tests.oracle.canonical` is the labelling memoized on the input's
    own atom order. Its search is the same, so on inputs within the node
    budget every key must be the same, cold or warm.
    """

    @pytest.fixture(scope="class")
    def corpus(self):
        return oracle_corpus()

    def test_keys_equal_the_oracle_cold_and_warm(self, corpus, fresh_shape_memo, monkeypatch):
        monkeypatch.setattr(oracle, "_SHAPE_CACHE", {})
        expected = [oracle.canonical_key(dependency) for dependency in corpus]
        cold = []
        for dependency in corpus:
            fresh_shape_memo.clear()
            cold.append(canonical_key(dependency))
        assert cold == expected
        fresh_shape_memo.clear()
        for __ in range(2):
            assert [canonical_key(dependency) for dependency in corpus] == expected

    def test_memo_key_spells_an_isomorphic_copy(self, corpus):
        for dependency in corpus:
            copy = decoded(
                canonical._memo_key(dependency.antecedents, dependency.conclusions), dependency
            )
            if len(variables_of(dependency)) <= 12:
                assert isomorphic(copy, dependency), dependency
            else:
                # The encodings' dependencies (up to 38 variables) are out
                # of the brute force's reach; the oracle's exact search
                # gives isomorphic inputs one key.
                assert oracle.canonical_key(copy) == oracle.canonical_key(dependency)


class TestSearchRate:
    def test_warm_batches_rarely_search(self, fresh_shape_memo, monkeypatch):
        """Disguised copies shuffle their antecedents; most must still
        meet their class's memo entry once the stream is warm."""
        searches = []
        search = canonical._search

        def counting(key):
            searches.append(key)
            return search(key)

        monkeypatch.setattr(canonical, "_search", counting)

        def batches(seeds):
            queries = 0
            for seed in seeds:
                dependencies, targets = inference_workload(
                    queries=96, duplicate_fraction=0.35, seed=seed
                )
                premises = premise_key(dependencies)
                for target in targets:
                    query_fingerprint(dependencies, target, premises=premises)
                queries += len(targets)
            return queries

        batches(range(50))
        searches.clear()
        queries = batches(range(50, 100))
        assert len(searches) / queries <= 0.06


#: SHA-256 of the fingerprint corpus below, concatenated in order. Pinned
#: so that a change to canonical labelling, key layout or digest encoding
#: cannot silently orphan every verdict in an existing disk cache.
GOLDEN_CORPUS_DIGEST = "bcbf9d804c5bebab10b8733e9f160d17f5693158b718ea3f45bf618ef8441f05"


class TestGoldenFingerprints:
    def test_fingerprint_corpus_digest_is_pinned(self):
        fingerprints = []
        for seed in range(30):
            dependencies, targets = inference_workload(
                queries=96, duplicate_fraction=0.35, seed=seed
            )
            fingerprints += [query_fingerprint(dependencies, target) for target in targets]
        encodings = [encode(positive_chain_family(k)) for k in range(1, 4)]
        encodings += [encode(negative_family(k)) for k in range(4)]
        fingerprints += [
            query_fingerprint(encoding.dependencies, encoding.d0) for encoding in encodings
        ]
        assert len(fingerprints) == 2887
        digest = hashlib.sha256("".join(fingerprints).encode()).hexdigest()
        assert digest == GOLDEN_CORPUS_DIGEST

"""Seeded random generators for property tests and scaling benchmarks.

Everything here is deterministic in its ``seed`` argument, so failures
reproduce and benchmarks are stable run to run.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.dependencies.eid import EmbeddedImplicationalDependency
from repro.dependencies.template import TemplateDependency, Variable
from repro.relational.instance import Instance
from repro.relational.queries import ConjunctiveQuery
from repro.relational.schema import Schema
from repro.relational.values import Const


def _default_schema(arity: int) -> Schema:
    return Schema([f"A{index + 1}" for index in range(arity)])


def random_td(
    *,
    arity: int = 3,
    antecedents: int = 3,
    variables_per_column: int = 2,
    existential_probability: float = 0.5,
    seed: int = 0,
    schema: Optional[Schema] = None,
) -> TemplateDependency:
    """A random typed template dependency.

    Each column ``c`` owns a pool of ``variables_per_column`` variables
    (typing restriction by construction). Antecedent atoms draw uniformly
    from the pools; each conclusion component is, with
    ``existential_probability``, a fresh existential variable, else a pool
    variable that occurred in some antecedent.
    """
    rng = random.Random(seed)
    schema = schema if schema is not None else _default_schema(arity)
    pools = [
        [Variable(f"c{column}v{index}") for index in range(variables_per_column)]
        for column in range(schema.arity)
    ]
    antecedent_atoms = [
        tuple(rng.choice(pools[column]) for column in range(schema.arity))
        for __ in range(antecedents)
    ]
    used_per_column: list[list[Variable]] = [
        sorted(
            {atom[column] for atom in antecedent_atoms},
            key=lambda variable: variable.name,
        )
        for column in range(schema.arity)
    ]
    conclusion = []
    for column in range(schema.arity):
        if rng.random() < existential_probability or not used_per_column[column]:
            conclusion.append(Variable(f"c{column}star"))
        else:
            conclusion.append(rng.choice(used_per_column[column]))
    return TemplateDependency(
        schema, antecedent_atoms, tuple(conclusion), name=f"random-td-{seed}"
    )


def random_full_td(
    *,
    arity: int = 3,
    antecedents: int = 3,
    variables_per_column: int = 2,
    seed: int = 0,
    schema: Optional[Schema] = None,
) -> TemplateDependency:
    """A random *full* TD (no existential variables, chase terminates)."""
    return random_td(
        arity=arity,
        antecedents=antecedents,
        variables_per_column=variables_per_column,
        existential_probability=0.0,
        seed=seed,
        schema=schema,
    )


def random_eid(
    *,
    arity: int = 3,
    antecedents: int = 2,
    conclusions: int = 2,
    variables_per_column: int = 2,
    existential_probability: float = 0.4,
    seed: int = 0,
    schema: Optional[Schema] = None,
) -> EmbeddedImplicationalDependency:
    """A random typed EID whose conclusion atoms share existentials.

    Column pools enforce the typing restriction as in :func:`random_td`.
    Each column owns one existential variable; a conclusion cell is,
    with ``existential_probability``, that shared existential (the same
    variable across all conclusion atoms — the witness-sharing that
    makes an EID conjunction stronger than its TD split), else an
    antecedent variable of the column.
    """
    rng = random.Random(seed)
    schema = schema if schema is not None else _default_schema(arity)
    pools = [
        [Variable(f"c{column}v{index}") for index in range(variables_per_column)]
        for column in range(schema.arity)
    ]
    antecedent_atoms = [
        tuple(rng.choice(pools[column]) for column in range(schema.arity))
        for __ in range(antecedents)
    ]
    used_per_column = [
        sorted(
            {atom[column] for atom in antecedent_atoms},
            key=lambda variable: variable.name,
        )
        for column in range(schema.arity)
    ]
    existential_per_column = [
        Variable(f"c{column}star") for column in range(schema.arity)
    ]
    conclusion_atoms = []
    for __ in range(conclusions):
        atom = []
        for column in range(schema.arity):
            if rng.random() < existential_probability or not used_per_column[column]:
                atom.append(existential_per_column[column])
            else:
                atom.append(rng.choice(used_per_column[column]))
        conclusion_atoms.append(tuple(atom))
    return EmbeddedImplicationalDependency(
        schema, antecedent_atoms, conclusion_atoms, name=f"random-eid-{seed}"
    )


def weakly_acyclic_dependencies(
    *,
    count: int = 2,
    arity: int = 3,
    include_eids: bool = False,
    seed: int = 0,
    schema: Optional[Schema] = None,
    max_attempts: int = 200,
) -> list:
    """A random *weakly acyclic* dependency set (every chase terminates).

    Draws candidate sets of embedded :func:`random_td` (plus one
    :func:`random_eid` when ``include_eids``) and keeps the first that
    is weakly acyclic (:func:`repro.analysis.positions.position_facts`)
    — the standard sufficient criterion under which **all** chase
    orders terminate polynomially, which is what makes these sets safe
    ground truth for kernel-differential testing. Deterministic in
    ``seed``.
    """
    from repro.analysis.positions import position_facts

    schema = schema if schema is not None else _default_schema(arity)
    for attempt in range(max_attempts):
        base = seed * 1_000_003 + attempt * 7_919
        dependencies: list = [
            random_td(
                arity=schema.arity,
                antecedents=2 + (base + index) % 2,
                existential_probability=0.35,
                seed=base + index,
                schema=schema,
            )
            for index in range(count)
        ]
        if include_eids:
            dependencies.append(
                random_eid(arity=schema.arity, seed=base + count, schema=schema)
            )
        if position_facts(dependencies).weakly_acyclic:
            return dependencies
    raise RuntimeError(
        f"no weakly acyclic set found in {max_attempts} attempts (seed {seed})"
    )


def random_instance(
    *,
    arity: int = 3,
    rows: int = 10,
    constants_per_column: int = 3,
    seed: int = 0,
    schema: Optional[Schema] = None,
) -> Instance:
    """A random typed database instance.

    Column ``c`` draws from its own pool of ``constants_per_column``
    constants, so the typing restriction holds by construction.
    """
    rng = random.Random(seed)
    schema = schema if schema is not None else _default_schema(arity)
    instance = Instance(schema)
    for __ in range(rows):
        instance.add(
            tuple(
                Const((f"col{column}", rng.randrange(constants_per_column)))
                for column in range(schema.arity)
            )
        )
    return instance


def random_cq(
    *,
    arity: int = 3,
    body_atoms: int = 3,
    variables_per_column: int = 2,
    head_size: int = 2,
    redundant_atoms: int = 0,
    seed: int = 0,
    schema: Optional[Schema] = None,
) -> ConjunctiveQuery:
    """A random typed conjunctive query, optionally with foldable padding.

    The core body draws from per-column variable pools (typed by
    construction); the head is a random sample of variables that occur
    in the body (safety by construction). ``redundant_atoms`` appends
    partially alpha-renamed copies of core atoms — each renamed cell
    gets a fresh variable occurring nowhere else, so the copy folds
    back onto its original and :meth:`ConjunctiveQuery.minimized` has
    genuine work to do. Deterministic in ``seed``.
    """
    rng = random.Random(seed)
    schema = schema if schema is not None else _default_schema(arity)
    pools = [
        [Variable(f"c{column}v{index}") for index in range(variables_per_column)]
        for column in range(schema.arity)
    ]
    body = [
        tuple(rng.choice(pools[column]) for column in range(schema.arity))
        for __ in range(body_atoms)
    ]
    used = sorted(
        {variable for atom in body for variable in atom},
        key=lambda variable: variable.name,
    )
    head = tuple(rng.sample(used, min(head_size, len(used))))
    head_set = set(head)
    for number in range(redundant_atoms):
        original = body[rng.randrange(body_atoms)]
        copy = []
        for column, variable in enumerate(original):
            if variable not in head_set and rng.random() < 0.7:
                copy.append(Variable(f"c{column}pad{number}"))
            else:
                copy.append(variable)
        body.append(tuple(copy))
    return ConjunctiveQuery(schema, head, body, name=f"random-cq-{seed}")


def disguise(
    dependency: TemplateDependency, *, seed: int = 0, tag: str = "d"
) -> TemplateDependency:
    """A structurally identical but syntactically different copy.

    Alpha-renames every variable (suffixing ``tag``) and shuffles the
    antecedent order — the two transformations the batch service's
    canonical hashing must see through. The result is
    ``structurally_equal`` to the input but rarely ``==`` to it.
    """
    rng = random.Random(seed)
    mapping = {
        variable: Variable(f"{variable.name}_{tag}{seed}")
        for variable in dependency.variables()
    }
    renamed = dependency.rename(mapping)
    atoms = list(renamed.antecedents)
    rng.shuffle(atoms)
    return TemplateDependency(
        renamed.schema, atoms, renamed.conclusion, name=dependency.name
    )


def inference_workload(
    *,
    queries: int = 100,
    duplicate_fraction: float = 0.3,
    seed: int = 0,
) -> tuple[list[TemplateDependency], list[TemplateDependency]]:
    """A batch-service workload: one dependency set, many targets.

    The premise set is binary transitivity (full, so every chase
    terminates and each query is decided). Targets mix provable path
    closures of varying length with random full TDs (mostly refutable);
    with probability ``duplicate_fraction`` a target is instead a
    *disguised* copy (alpha-renamed, antecedents shuffled) of an earlier
    one, exercising canonical deduplication and the result cache the way
    real repeated traffic would. Deterministic in ``seed``.
    """
    if queries < 1:
        raise ValueError("queries must be positive")
    rng = random.Random(seed)
    schema = Schema(["FROM", "TO"])
    dependencies, _ = transitivity_family(2)
    targets: list[TemplateDependency] = []
    for number in range(queries):
        if targets and rng.random() < duplicate_fraction:
            original = rng.choice(targets)
            targets.append(disguise(original, seed=number, tag="q"))
            continue
        if rng.random() < 0.5:
            _, path_target = transitivity_family(rng.randrange(3, 9))
            targets.append(disguise(path_target, seed=number, tag="p"))
        else:
            targets.append(
                random_full_td(
                    arity=2,
                    antecedents=rng.randrange(3, 6),
                    variables_per_column=3,
                    seed=seed * 100_003 + number,
                    schema=schema,
                )
            )
    return list(dependencies), targets


def transitivity_family(path_length: int) -> tuple[list[TemplateDependency], TemplateDependency]:
    """Full-TD implication instances of growing difficulty.

    Returns (``{transitivity}``, ``path_length``-step transitivity): the
    single binary transitivity TD provably implies its ``k``-step
    closure, with chase work growing in ``k``. Untyped on purpose (the
    classic relational shape); used by the chase-scaling benchmark E9.
    """
    if path_length < 2:
        raise ValueError("path_length must be >= 2")
    schema = Schema(["FROM", "TO"])
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    transitivity = TemplateDependency(
        schema, [(x, y), (y, z)], (x, z), name="transitivity"
    )
    chain_variables = [Variable(f"p{index}") for index in range(path_length + 1)]
    target = TemplateDependency(
        schema,
        [
            (chain_variables[index], chain_variables[index + 1])
            for index in range(path_length)
        ],
        (chain_variables[0], chain_variables[path_length]),
        name=f"path-{path_length}",
    )
    return [transitivity], target

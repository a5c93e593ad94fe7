"""Cores of instances (minimal retracts).

The *core* of an instance is a smallest sub-instance it retracts onto: a
homomorphic image, fixing constants, that cannot be shrunk further. Chase
results are only unique up to homomorphic equivalence, and cores are the
canonical representatives — two terminating chase runs of the same problem
have isomorphic cores. The test suite uses cores to compare chase runs,
and the benchmarks use them to measure redundancy introduced by the
oblivious chase.

Core computation is NP-hard in general; the implementation here is the
standard iterated-retraction algorithm. Retraction search is
:func:`repro.relational.homplan.find_retraction_assignment`, the
image-shrinks early-exit walk over the shared join kernel.
"""

from __future__ import annotations

from typing import Optional

from repro.relational.homomorphism import Assignment, apply_assignment
from repro.relational.instance import Instance
from repro.relational.values import is_null


def find_retraction(instance: Instance) -> Optional[Assignment]:
    """Find a proper retraction of ``instance``, if one exists.

    A proper retraction is an endomorphism (constants fixed, nulls mapped
    anywhere) whose image omits at least one row. Returns the assignment or
    None when the instance is already a core.
    """
    from repro.relational.homplan import find_retraction_assignment

    return find_retraction_assignment(list(instance.rows), instance)


def core_of(instance: Instance) -> Instance:
    """Compute the core of ``instance`` by iterated proper retraction."""
    current = instance.copy()
    while True:
        retraction = find_retraction(current)
        if retraction is None:
            return current
        current = Instance(
            current.schema,
            (apply_assignment(row, retraction) for row in current),
        )


def is_core(instance: Instance) -> bool:
    """Return True when ``instance`` admits no proper retraction."""
    return find_retraction(instance) is None


def homomorphically_equivalent(left: Instance, right: Instance) -> bool:
    """True when homomorphisms exist in both directions (constants fixed).

    Nulls are the flexible terms; constants must be preserved. Two
    terminating chases of the same input are homomorphically equivalent,
    which is the correctness notion for universal models.
    """
    from repro.relational.homplan import find_homomorphism

    if left.schema != right.schema:
        return False
    forward = find_homomorphism(left.rows, right)
    if forward is None:
        return False
    backward = find_homomorphism(right.rows, left)
    return backward is not None


def null_count(instance: Instance) -> int:
    """Number of distinct labelled nulls in the instance."""
    return sum(1 for value in instance.active_domain() if is_null(value))

"""Typed relational substrate (system S1).

This package implements the database model of Gurevich & Lewis (1982):
a single relation ``R`` over a fixed list of attributes whose domains are
pairwise disjoint (the *typing restriction*). It provides:

* :class:`~repro.relational.schema.Schema` — ordered attribute lists;
* :class:`~repro.relational.values.Const` and
  :class:`~repro.relational.values.LabeledNull` — the two kinds of values
  (named constants and chase-invented labelled nulls);
* :class:`~repro.relational.instance.Instance` — a finite set of typed
  tuples with per-column indexes for fast trigger enumeration;
* homomorphism search on the shared join kernel
  (:mod:`repro.relational.homplan`; the vocabulary it shares with the
  certificate checker is :mod:`repro.relational.homomorphism`) — plus
  direct products (:mod:`repro.relational.product`) and cores
  (:mod:`repro.relational.core`).
"""

from repro.relational.core import core_of, find_retraction, is_core
from repro.relational.homomorphism import is_homomorphism
from repro.relational.homplan import (
    count_homomorphisms,
    extend_homomorphism,
    find_homomorphism,
    find_retraction_assignment,
    iter_homomorphisms,
)
from repro.relational.instance import Instance
from repro.relational.product import direct_product, power
from repro.relational.queries import ConjunctiveQuery
from repro.relational.schema import Attribute, Schema
from repro.relational.values import Const, LabeledNull, NullFactory, Value, is_null

__all__ = [
    "Attribute",
    "Schema",
    "Const",
    "LabeledNull",
    "NullFactory",
    "Value",
    "is_null",
    "Instance",
    "find_homomorphism",
    "iter_homomorphisms",
    "count_homomorphisms",
    "extend_homomorphism",
    "is_homomorphism",
    "direct_product",
    "power",
    "ConjunctiveQuery",
    "core_of",
    "find_retraction",
    "find_retraction_assignment",
    "is_core",
]

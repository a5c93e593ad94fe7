"""Homomorphism search on the shared join kernel.

The one homomorphism engine (the vocabulary — :func:`is_homomorphism`,
:func:`apply_assignment` — lives in :mod:`repro.relational.homomorphism`).
The search is compiled onto the engine layer of :mod:`repro.kernel.joins`
(the machinery already under the chase and the model checker): flat
integer *slots* for the flexible terms, a most-constrained-first atom
order decided once per source structure, and probe/bind/check column
lists walked over a :class:`~repro.kernel.joins.KernelState`'s interned
int-row index.

What compiles, per call shape:

* **enumeration** (:func:`iter_homomorphisms`) — a backtracking walk
  yielding every complete assignment; rigid source terms and
  ``partial``-bound flexible terms become *prebound* slots, so constants
  cost one index probe instead of a per-candidate comparison;
* **existence** (:func:`find_homomorphism`, :func:`extend_homomorphism`,
  :func:`count_homomorphisms`) — the kernel's early-exit
  :func:`~repro.kernel.joins.has_extension` walk, which leaves the
  witnessing assignment in the registers;
* **retraction** (:func:`find_retraction_assignment`) — the
  *endomorphism mode* behind core computation and CQ minimization: the
  walk tracks the image row of every matched source atom and
  **early-exits the moment two source atoms collapse onto one target
  row** (an image strictly smaller than the source is exactly a proper
  retraction), switching to the pure-existence walk for the remaining
  atoms.

Plans are cached structurally (two row sets with the same
variable/constant shape and the same prebound positions share one
plan), through the same :func:`~repro.kernel.joins.memoized` policy as
every other compiled-artifact cache. All compiled paths run on the
target's *cached* kernel view
(:meth:`~repro.relational.instance.Instance.kernel_view`), kept in sync
by the instance's mutation hooks — repeated small queries against one
database no longer pay an O(instance) interning pass per call.

``tests/relational/test_homplan.py`` holds every entry point to the
generic backtracking search kept in ``tests/oracle`` — identical
homomorphism *sets*, not just existence.

NOTE: the candidate loop in :func:`_iter_walk` (the one enumerating
walker, a generator — the shape that stays python under every join
backend) is deliberately kept in lockstep with
:func:`repro.kernel.joins.extend_matches` /
:func:`~repro.kernel.joins.has_extension` (see the NOTE there) — same
step semantics, different termination discipline. The early-exit walks
(existence, retraction) are kernel-owned and run on whichever join
backend the process resolved (``REPRO_JOIN_BACKEND``).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional, Sequence

from repro.kernel.joins import (
    AtomStep,
    IntRow,
    KernelState,
    compile_steps,
    has_extension,
    memoized,
    retraction_walk,
)
from repro.relational.homomorphism import Assignment, Flexibility
from repro.relational.instance import Instance
from repro.relational.values import is_null

class HomPlan:
    """A compiled source structure: join order + slot count.

    Shared across every call whose source rows have the same shape
    (same first-occurrence pattern of terms, same prebound positions) —
    the terms themselves, and the values prebound into the registers,
    are per-call.
    """

    __slots__ = ("steps", "n_slots")

    def __init__(self, steps: tuple[AtomStep, ...], n_slots: int):
        self.steps = steps
        self.n_slots = n_slots


#: Structural plan memo: key -> HomPlan (see :func:`_prepare`).
_HOM_PLAN_CACHE: dict = {}
_HOM_PLAN_CACHE_MAX = 4096


def _prepare(
    rows: Sequence[tuple],
    flexible: Flexibility,
    partial: Mapping,
) -> tuple[HomPlan, list[tuple[int, object]], list[tuple[object, int]]]:
    """Compile ``rows`` into ``(plan, prebound, out_pairs)``.

    Slots are assigned to terms in first-seen order — flexible and
    rigid alike (a rigid term, or a flexible term bound by ``partial``,
    is a *prebound* slot: its value is interned into the registers
    before the walk). ``out_pairs`` lists the flexible terms the walk
    must decode from the registers afterwards (``partial``-bound terms
    are already known to the caller).

    The plan itself is memoized on the structure only: the per-atom
    slot pattern plus the prebound slot set. Calls over differently
    named variables or different constants share one compiled order.
    """
    slot_of: dict = {}
    prebound: list[tuple[int, object]] = []
    out_pairs: list[tuple[object, int]] = []
    bound: set[int] = set()
    atom_slots: list[tuple[int, ...]] = []
    for row in rows:
        slots = []
        for term in row:
            slot = slot_of.get(term)
            if slot is None:
                slot = slot_of[term] = len(slot_of)
                if flexible(term):
                    if term in partial:
                        prebound.append((slot, partial[term]))
                        bound.add(slot)
                    else:
                        out_pairs.append((term, slot))
                else:
                    prebound.append((slot, term))
                    bound.add(slot)
            slots.append(slot)
        atom_slots.append(tuple(slots))
    key = (tuple(atom_slots), frozenset(bound))
    plan = memoized(
        _HOM_PLAN_CACHE,
        key,
        lambda __: HomPlan(compile_steps(atom_slots, bound), len(slot_of)),
        _HOM_PLAN_CACHE_MAX,
    )
    return plan, prebound, out_pairs


def _load_registers(
    plan: HomPlan, prebound: list[tuple[int, object]], state: KernelState
) -> list[int]:
    """Fresh registers with the prebound values interned.

    Interning a value the target has never seen simply mints a fresh id
    with empty index buckets — the walk then fails its probes naturally.
    """
    regs = [0] * plan.n_slots
    intern = state.intern
    for slot, value in prebound:
        regs[slot] = intern(value)
    return regs


def _iter_walk(
    state: KernelState,
    steps: tuple[AtomStep, ...],
    depth: int,
    regs: list[int],
) -> Iterator[None]:
    """Backtracking join over ``steps``, yielding once per complete match.

    At each yield the registers hold the complete assignment; the
    consumer must decode them before advancing the generator (the walk
    reuses the register list). Kept in lockstep with the kernel walkers
    (see the module NOTE).
    """
    if depth == len(steps):
        yield None
        return
    step = steps[depth]
    probes = step.probes
    if step.membership:
        if tuple(regs[slot] for slot in step.probe_slots) in state.irows:
            yield from _iter_walk(state, steps, depth + 1, regs)
        return
    if probes:
        index = state.index
        best = None
        for column, slot in probes:
            bucket = index.get((column, regs[slot]))
            if not bucket:
                return
            if best is None or len(bucket) < len(best):
                best = bucket
    else:
        best = state.rows_list
    verify = step.verify_probes
    binds = step.binds
    checks = step.checks
    next_depth = depth + 1
    for irow in best:
        ok = True
        for column, slot in verify:
            if irow[column] != regs[slot]:
                ok = False
                break
        if not ok:
            continue
        for column, slot in binds:
            regs[slot] = irow[column]
        for column, slot in checks:
            if irow[column] != regs[slot]:
                ok = False
                break
        if ok:
            yield from _iter_walk(state, steps, next_depth, regs)


def _decode(
    base: dict,
    out_pairs: list[tuple[object, int]],
    regs: list[int],
    state: KernelState,
) -> Assignment:
    values = state.values
    result = dict(base)
    for term, slot in out_pairs:
        result[term] = values[regs[slot]]
    return result


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def iter_homomorphisms(
    source_rows: Iterable[Sequence[object]],
    target: Instance,
    *,
    partial: Optional[Mapping] = None,
    flexible: Flexibility = is_null,
) -> Iterator[Assignment]:
    """Yield every homomorphism of ``source_rows`` into ``target``.

    ``partial`` pre-binds some flexible terms (its bindings are honoured
    but not re-checked against rigidity). ``flexible`` classifies source
    terms; the default treats labelled nulls as variables and everything
    else as rigid, the right notion for instance-to-instance
    homomorphisms. Yields a fresh assignment dict per match, covering
    every flexible term of the source.
    """
    rows = [tuple(row) for row in source_rows]
    base: dict = dict(partial) if partial else {}
    plan, prebound, out_pairs = _prepare(rows, flexible, base)
    state = target.kernel_view()
    regs = _load_registers(plan, prebound, state)
    for __ in _iter_walk(state, plan.steps, 0, regs):
        yield _decode(base, out_pairs, regs, state)


def find_homomorphism(
    source_rows: Iterable[Sequence[object]],
    target: Instance,
    *,
    partial: Optional[Mapping] = None,
    flexible: Flexibility = is_null,
) -> Optional[Assignment]:
    """Return one homomorphism (as a fresh dict) or None."""
    rows = [tuple(row) for row in source_rows]
    base: dict = dict(partial) if partial else {}
    plan, prebound, out_pairs = _prepare(rows, flexible, base)
    state = target.kernel_view()
    regs = _load_registers(plan, prebound, state)
    if has_extension(state, plan.steps, 0, regs):
        return _decode(base, out_pairs, regs, state)
    return None


def count_homomorphisms(
    source_rows: Iterable[Sequence[object]],
    target: Instance,
    *,
    partial: Optional[Mapping] = None,
    flexible: Flexibility = is_null,
    limit: Optional[int] = None,
) -> int:
    """Count homomorphisms, optionally stopping at ``limit``."""
    if limit is not None and limit <= 0:
        return 0
    rows = [tuple(row) for row in source_rows]
    base: dict = dict(partial) if partial else {}
    plan, prebound, out_pairs = _prepare(rows, flexible, base)
    state = target.kernel_view()
    regs = _load_registers(plan, prebound, state)
    count = 0
    for __ in _iter_walk(state, plan.steps, 0, regs):
        count += 1
        if limit is not None and count >= limit:
            break
    return count


def extend_homomorphism(
    assignment: Mapping,
    extra_rows: Iterable[Sequence[object]],
    target: Instance,
    *,
    flexible: Flexibility = is_null,
) -> Optional[Assignment]:
    """Extend ``assignment`` so that ``extra_rows`` also embed into ``target``.

    Returns the extended assignment (a fresh dict) or None when no
    extension exists.
    """
    return find_homomorphism(
        extra_rows, target, partial=assignment, flexible=flexible
    )


def find_retraction_assignment(
    source_rows: Iterable[Sequence[object]],
    target: Instance,
    *,
    partial: Optional[Mapping] = None,
    flexible: Flexibility = is_null,
) -> Optional[Assignment]:
    """A homomorphism whose image has fewer rows than the source, or None.

    The endomorphism mode: with ``source_rows`` = the rows of ``target``
    this is exactly :func:`repro.relational.core.find_retraction` (a
    proper retraction exists iff two source rows collapse onto one
    image row); with a CQ body and its head identity as ``partial`` it
    is one step of query minimization. ``source_rows`` must be distinct
    (instance row sets and deduplicated CQ bodies are).
    """
    rows = [tuple(row) for row in source_rows]
    base: dict = dict(partial) if partial else {}
    plan, prebound, out_pairs = _prepare(rows, flexible, base)
    state = target.kernel_view()
    regs = _load_registers(plan, prebound, state)
    used: set[IntRow] = set()
    if retraction_walk(state, plan.steps, 0, regs, used):
        return _decode(base, out_pairs, regs, state)
    return None

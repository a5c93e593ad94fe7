"""The shared join kernel: interned rows, compiled atom steps, walkers.

Every decision procedure in this library bottoms out in *homomorphism
search* — the chase fires triggers (antecedent homomorphisms without a
conclusion extension), model checking looks for violations (the same
match shape), core computation retracts an instance onto itself, and
conjunctive-query containment folds one query body onto another. PR 3/4
compiled two of those consumers (:mod:`repro.chase.plan`,
:mod:`repro.chase.checkplan`) onto one set of primitives; this module is
that machinery extracted into a dedicated engine layer so the remaining
consumers (:mod:`repro.relational.homplan`: cores, homomorphic
equivalence, CQ evaluation/containment/minimization) run on the same
kernel instead of the generic backtracking search.

The primitives:

* :class:`AtomStep` — one precompiled join step over flat integer
  *slots*: probe columns (already bound), bind columns (first
  occurrences) and check columns (repeats within the atom), with
  single-probe and all-bound-membership fast paths;
* :func:`compile_steps` — the greedy most-constrained-first atom order,
  decided once per structure instead of per backtracking node;
* :class:`KernelState` (:mod:`repro.kernel.state`) — the interned
  int-row view of a live :class:`~repro.relational.instance.Instance`,
  kept in sync as the chase fires;
* the walkers — :func:`extend_matches` (collect completed matches),
  :func:`has_extension` (existence, early exit),
  :func:`violation_walk` (first antecedent match with no conclusion
  extension — model checking) and :func:`retraction_walk` (the
  image-shrinks endomorphism walk behind cores and CQ minimization) —
  plus :func:`memoized`, the one structural-cache implementation every
  compiled-artifact cache shares.

Every walker exists twice: the pure-python reference implementation in
this module, and a C implementation in :mod:`repro.kernel._native`
compiled at install time when a toolchain is available. The public
functions dispatch on the process-wide resolved backend
(:func:`repro.kernel.backend.resolve_join_backend`,
``REPRO_JOIN_BACKEND=auto|native|python``); both backends are held to
identical semantics by the seeded differential suites, which
parametrize over the backend.

NOTE: the candidate loop (smallest-bucket probe selection, single-probe
no-verify and all-bound-membership fast paths, bind-then-check order) is
deliberately inlined in each of the four python walkers below, in their
C twins, and in the enumerating walker of
:mod:`repro.relational.homplan` (``_iter_walk``, a generator — the one
shape that stays python under every backend) — a shared per-candidate
helper costs the kernel its measured speedup. Any change to the step
semantics must be applied to all of them; the differential suites
(``tests/chase/test_kernel_differential.py``,
``tests/chase/test_checker_differential.py``,
``tests/relational/test_homplan.py``) exist to catch a one-sided edit.
The one exception is the old/delta split: only :func:`extend_matches`
and its C twin read :attr:`AtomStep.old_only` (a step tagged by the
chase's pivot plans skips rows of the round's delta, in the candidate
loop and in the membership fast path); every other walker is handed
untagged steps.
"""

from __future__ import annotations

from typing import AbstractSet, Callable, Hashable, Sequence, TypeVar

from repro.kernel import backend as _backend
from repro.kernel.state import IntRow, KernelState

__all__ = [
    "AtomStep",
    "IntRow",
    "KernelState",
    "atom_equality_pattern",
    "compile_atom",
    "compile_steps",
    "extend_matches",
    "has_extension",
    "violation_walk",
    "retraction_walk",
    "memoized",
]

#: (column, slot) pairs — the unit every step component is made of.
ColumnSlots = tuple[tuple[int, int], ...]


class AtomStep:
    """One precompiled join step: match one atom against the index.

    ``probes`` are ``(column, slot)`` pairs whose slots are bound before
    this step — candidate rows come from the smallest matching index
    bucket and are verified against the rest. ``binds`` are the first
    occurrences of newly bound slots; ``checks`` are repeat occurrences
    of slots bound earlier *within this same atom* (verified after
    binding). When every column is a probe (``membership`` True) the
    whole step degenerates to one O(1) set-membership test — the common
    case for full-dependency activity checks and implication goals.

    ``old_only`` marks an atom that precedes the pivot of a semi-naive
    pivot plan: under :func:`extend_matches` it matches only rows
    outside the round's delta (see :mod:`repro.chase.plan`).
    """

    __slots__ = (
        "probes",
        "binds",
        "checks",
        "old_only",
        "membership",
        "probe_slots",
        "verify_probes",
    )

    def __init__(
        self,
        probes: ColumnSlots,
        binds: ColumnSlots,
        checks: ColumnSlots,
        old_only: bool = False,
    ) -> None:
        self.probes = probes
        self.binds = binds
        self.checks = checks
        self.old_only = old_only
        self.membership = not binds and not checks
        #: Slot per column, for the membership fast path (probes are in
        #: column order by construction).
        self.probe_slots = tuple(slot for __, slot in probes)
        #: With a single probe the index bucket already guarantees the
        #: match — candidate rows need no re-verification.
        self.verify_probes: ColumnSlots = probes if len(probes) > 1 else ()


def atom_equality_pattern(atom: Sequence[Hashable]) -> ColumnSlots:
    """Column pairs a row must agree on to unify with ``atom``.

    Works over any hashable atom terms — the compiled kernel passes
    integer slots; :class:`~repro.dependencies.template.Variable` atoms
    work as well. A repeated
    term is the only way an all-variable atom can reject a row, so this
    pattern is the complete row-level dispatch filter.
    """
    first: dict[Hashable, int] = {}
    pattern: list[tuple[int, int]] = []
    for column, term in enumerate(atom):
        seen = first.get(term)
        if seen is None:
            first[term] = column
        else:
            pattern.append((seen, column))
    return tuple(pattern)


def compile_atom(
    slots: Sequence[int], bound: set[int], old_only: bool = False
) -> tuple[AtomStep, set[int]]:
    """Compile one atom given the already-bound slot set (updated)."""
    probes: list[tuple[int, int]] = []
    binds: list[tuple[int, int]] = []
    checks: list[tuple[int, int]] = []
    bound_here: set[int] = set()
    for column, slot in enumerate(slots):
        if slot in bound:
            probes.append((column, slot))
        elif slot in bound_here:
            checks.append((column, slot))
        else:
            binds.append((column, slot))
            bound_here.add(slot)
    bound |= bound_here
    return AtomStep(tuple(probes), tuple(binds), tuple(checks), old_only), bound


def compile_steps(
    atom_slots: Sequence[tuple[int, ...]], bound: set[int], old_before: int = 0
) -> tuple[AtomStep, ...]:
    """Greedy most-constrained-first order over ``atom_slots``.

    The generic backtracking heuristic, decided once: prefer the
    atom with the most already-bound cells, tie-break on fewer new
    slots, then on input order (deterministic). The order loses where
    each step came from, so the steps compiled from the first
    ``old_before`` atoms carry :attr:`AtomStep.old_only`.
    """
    remaining = list(range(len(atom_slots)))
    steps: list[AtomStep] = []
    bound = set(bound)
    while remaining:
        best = max(
            remaining,
            key=lambda i: (
                sum(1 for slot in atom_slots[i] if slot in bound),
                -len({slot for slot in atom_slots[i] if slot not in bound}),
                -i,
            ),
        )
        remaining.remove(best)
        step, bound = compile_atom(atom_slots[best], bound, best < old_before)
        steps.append(step)
    return tuple(steps)


_K = TypeVar("_K")
_V = TypeVar("_V")


def memoized(
    cache: dict[_K, _V], key: _K, build: Callable[[_K], _V], max_size: int
) -> _V:
    """Structural memo with oldest-first eviction.

    One implementation for every compiled-artifact cache (the plan and
    program caches in :mod:`repro.chase.plan`, the check cache in
    :mod:`repro.chase.checkplan`, the homomorphism-plan cache in
    :mod:`repro.relational.homplan`, the native step-packing cache
    below, the canonical-shape memo in
    :mod:`repro.dependencies.canonical`), so the eviction policy cannot
    drift between them; ``scripts/lint_invariants.py`` rejects any
    other. ``build`` receives ``key`` on a miss.
    """
    value = cache.get(key)
    if value is None:
        value = build(key)
        while len(cache) >= max_size:
            del cache[next(iter(cache))]  # oldest-first
        cache[key] = value
    return value


# ---------------------------------------------------------------------------
# Native step packing
# ---------------------------------------------------------------------------

#: Packed C step programs, keyed by the (identity-hashed) step tuples
#: the plan caches hold — packing re-reads the AtomStep fields once per
#: cached plan, not per walk.
_PACKED_CACHE: dict[tuple[AtomStep, ...], object] = {}
_PACKED_CACHE_MAX = 8192


def _pack(steps: tuple[AtomStep, ...]) -> object:
    """The native backend's packed twin of a python step tuple."""
    native = _backend.active_native()
    assert native is not None
    return memoized(
        _PACKED_CACHE,
        steps,
        lambda key: native.pack_steps(
            [(step.probes, step.binds, step.checks, step.old_only) for step in key]
        ),
        _PACKED_CACHE_MAX,
    )


# ---------------------------------------------------------------------------
# Walkers
# ---------------------------------------------------------------------------


def extend_matches(
    state: KernelState,
    steps: tuple[AtomStep, ...],
    depth: int,
    regs: list[int],
    n_universal: int,
    seen: set[tuple[int, ...]],
    out: list[tuple[int, ...]],
    delta: AbstractSet[IntRow],
) -> None:
    """Backtracking join over ``steps``; completed matches land in ``out``.

    Matches are deduplicated on their first ``n_universal`` registers
    (the chase's trigger key). ``delta`` is the round's delta row set:
    a step tagged :attr:`AtomStep.old_only` skips the rows in it, so a
    pivot plan finds a match only at its first delta atom. Untagged
    steps, or an empty ``delta``, prune nothing. See the module NOTE
    about the deliberately inlined candidate loop.
    """
    if depth == 0:
        native = _backend.active_native()
        if native is not None:
            native.extend_matches(
                state.index,
                state.irows,
                state.rows_list,
                _pack(steps),
                regs,
                n_universal,
                seen,
                out,
                delta,
            )
            return
    if depth == len(steps):
        key = tuple(regs[:n_universal])
        if key not in seen:
            seen.add(key)
            out.append(key)
        return
    step = steps[depth]
    probes = step.probes
    # The rows this step keeps off: falsy unless it is tagged and the
    # delta is not empty.
    skip = delta if step.old_only else None
    if step.membership:
        irow = tuple(regs[slot] for slot in step.probe_slots)
        if irow in state.irows and not (skip and irow in skip):
            extend_matches(
                state, steps, depth + 1, regs, n_universal, seen, out, delta
            )
        return
    best: Sequence[IntRow]
    if probes:
        index = state.index
        chosen = None
        for column, slot in probes:
            bucket = index.get((column, regs[slot]))
            if not bucket:
                return
            if chosen is None or len(bucket) < len(chosen):
                chosen = bucket
        assert chosen is not None
        best = chosen
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
        if ok and not (skip and irow in skip):
            extend_matches(
                state, steps, next_depth, regs, n_universal, seen, out, delta
            )


def has_extension(
    state: KernelState,
    steps: tuple[AtomStep, ...],
    depth: int,
    regs: list[int],
) -> bool:
    """Does some assignment of the remaining slots embed the atoms?

    Early-exits on the first complete match; a True return unwinds
    without touching ``regs`` again, so the caller can read the
    satisfying assignment straight out of the registers. See the module
    NOTE about the deliberately inlined candidate loop.
    """
    if depth == 0:
        native = _backend.active_native()
        if native is not None:
            found: bool = native.has_extension(
                state.index, state.irows, state.rows_list, _pack(steps), regs
            )
            return found
    if depth == len(steps):
        return True
    step = steps[depth]
    probes = step.probes
    if step.membership:
        if tuple(regs[slot] for slot in step.probe_slots) in state.irows:
            return has_extension(state, steps, depth + 1, regs)
        return False
    best: Sequence[IntRow]
    if probes:
        index = state.index
        chosen = None
        for column, slot in probes:
            bucket = index.get((column, regs[slot]))
            if not bucket:
                return False
            if chosen is None or len(bucket) < len(chosen):
                chosen = bucket
        assert chosen is not None
        best = chosen
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
        if ok and has_extension(state, steps, next_depth, regs):
            return True
    return False


def violation_walk(
    state: KernelState,
    steps: tuple[AtomStep, ...],
    depth: int,
    regs: list[int],
    activity_steps: tuple[AtomStep, ...],
) -> bool:
    """Find the first antecedent match with no conclusion extension.

    The model-checking walk (previously inlined in
    :mod:`repro.chase.checkplan`): returns True with the witness left in
    ``regs`` (universal slots), or False when every antecedent match
    extends — i.e. the dependency holds. A True return unwinds without
    touching ``regs`` again, so the caller reads the witness straight
    out of the registers. See the module NOTE about the deliberately
    inlined candidate loop.
    """
    if depth == 0:
        native = _backend.active_native()
        if native is not None:
            violated: bool = native.violation_walk(
                state.index,
                state.irows,
                state.rows_list,
                _pack(steps),
                _pack(activity_steps),
                regs,
            )
            return violated
    if depth == len(steps):
        # Complete antecedent match: violated iff the conclusion atoms
        # have no extension (the precompiled trigger-activity probe).
        return not _has_extension_py(state, activity_steps, 0, regs)
    step = steps[depth]
    probes = step.probes
    if step.membership:
        if tuple(regs[slot] for slot in step.probe_slots) in state.irows:
            return violation_walk(
                state, steps, depth + 1, regs, activity_steps
            )
        return False
    best: Sequence[IntRow]
    if probes:
        index = state.index
        chosen = None
        for column, slot in probes:
            bucket = index.get((column, regs[slot]))
            if not bucket:
                return False
            if chosen is None or len(bucket) < len(chosen):
                chosen = bucket
        assert chosen is not None
        best = chosen
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
        if ok and violation_walk(state, steps, next_depth, regs, activity_steps):
            return True
    return False


def retraction_walk(
    state: KernelState,
    steps: tuple[AtomStep, ...],
    depth: int,
    regs: list[int],
    used: set[IntRow],
) -> bool:
    """The image-shrinks early-exit walk (endomorphism mode).

    The core/CQ-minimization walk (previously inlined in
    :mod:`repro.relational.homplan`): ``used`` holds the image rows of
    the source atoms matched so far. The moment a candidate's image row
    repeats, the homomorphism is guaranteed non-injective on rows — a
    proper retraction — so the remaining atoms only need *existence*
    (:func:`has_extension`), not enumeration. A walk that completes
    without a repeat is a row-injective endomorphism and is rejected. A
    True return unwinds without touching ``regs``, so the caller
    decodes the witnessing assignment straight from the registers. See
    the module NOTE about the deliberately inlined candidate loop.
    """
    if depth == 0:
        native = _backend.active_native()
        if native is not None:
            retracts: bool = native.retraction_walk(
                state.index,
                state.irows,
                state.rows_list,
                _pack(steps),
                regs,
                used,
            )
            return retracts
    if depth == len(steps):
        return False  # complete, but row-injective: not a proper retraction
    step = steps[depth]
    probes = step.probes
    next_depth = depth + 1
    if step.membership:
        irow = tuple(regs[slot] for slot in step.probe_slots)
        if irow not in state.irows:
            return False
        if irow in used:
            return _has_extension_py(state, steps, next_depth, regs)
        used.add(irow)
        if retraction_walk(state, steps, next_depth, regs, used):
            return True
        used.discard(irow)
        return False
    best: Sequence[IntRow]
    if probes:
        index = state.index
        chosen = None
        for column, slot in probes:
            bucket = index.get((column, regs[slot]))
            if not bucket:
                return False
            if chosen is None or len(bucket) < len(chosen):
                chosen = bucket
        assert chosen is not None
        best = chosen
    else:
        best = state.rows_list
    verify = step.verify_probes
    binds = step.binds
    checks = step.checks
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
        if not ok:
            continue
        if irow in used:
            if _has_extension_py(state, steps, next_depth, regs):
                return True
            continue
        used.add(irow)
        if retraction_walk(state, steps, next_depth, regs, used):
            return True
        used.discard(irow)
    return False


def _has_extension_py(
    state: KernelState,
    steps: tuple[AtomStep, ...],
    depth: int,
    regs: list[int],
) -> bool:
    """:func:`has_extension` without the backend dispatch.

    The python walkers recurse into existence checks at arbitrary
    depths (the retraction walk's switch-to-existence, the violation
    walk's conclusion probe); routing those through the dispatching
    entry point would be wasted work — when a python walker is running,
    the python backend is the active one for this walk.
    """
    if depth == len(steps):
        return True
    step = steps[depth]
    probes = step.probes
    if step.membership:
        if tuple(regs[slot] for slot in step.probe_slots) in state.irows:
            return _has_extension_py(state, steps, depth + 1, regs)
        return False
    best: Sequence[IntRow]
    if probes:
        index = state.index
        chosen = None
        for column, slot in probes:
            bucket = index.get((column, regs[slot]))
            if not bucket:
                return False
            if chosen is None or len(bucket) < len(chosen):
                chosen = bucket
        assert chosen is not None
        best = chosen
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
        if ok and _has_extension_py(state, steps, next_depth, regs):
            return True
    return False

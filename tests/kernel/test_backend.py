"""The join-backend selector: resolution, caching, override, fallback.

The walkers themselves are held native ≡ python by the parametrized
differential suites (``tests/chase/test_kernel_differential.py`` and
friends); this module tests the selection machinery — the process-wide
cached resolution, the ``REPRO_JOIN_BACKEND`` contract, the log-once
fallback warning, and direct walker agreement on a small instance so a
backend-dispatch bug fails here with a pinpoint message rather than
deep inside a differential seed.
"""

import logging
import os

import pytest

from repro.kernel import backend
from repro.kernel.backend import (
    join_backend_info,
    join_backend_override,
    native_available,
    resolve_join_backend,
    set_join_backend,
)
from repro.kernel.joins import (
    compile_steps,
    extend_matches,
    has_extension,
    retraction_walk,
    violation_walk,
)
from repro.relational.instance import Instance
from repro.relational.schema import Schema
from repro.relational.values import Const

needs_native = pytest.mark.skipif(
    not native_available(),
    reason="repro.kernel._native not built "
    "(python setup.py build_ext --inplace)",
)


@pytest.fixture
def restore_backend():
    """Put the process backend back exactly as it was."""
    saved = os.environ.get(backend.ENV_VAR)
    yield
    if saved is None:
        os.environ.pop(backend.ENV_VAR, None)
    else:
        os.environ[backend.ENV_VAR] = saved
    set_join_backend(None)


def test_resolution_is_cached(restore_backend):
    first = resolve_join_backend()
    # Mutating the environment without reset must not change the answer:
    # resolution is once per process, not per call.
    os.environ[backend.ENV_VAR] = (
        "python" if first == "native" else "auto"
    )
    assert resolve_join_backend() == first


def test_python_forced(restore_backend):
    assert set_join_backend("python") == "python"
    assert backend.active_native() is None


def test_auto_prefers_native_when_available(restore_backend):
    resolved = set_join_backend("auto")
    assert resolved == ("native" if native_available() else "python")


def test_invalid_backend_rejected(restore_backend):
    with pytest.raises(ValueError, match="unknown join backend"):
        set_join_backend("rust")
    os.environ[backend.ENV_VAR] = "rust"
    backend._resolved = None
    with pytest.raises(ValueError, match="unknown join backend"):
        resolve_join_backend()


def test_override_restores(restore_backend):
    before = resolve_join_backend()
    with join_backend_override("python") as resolved:
        assert resolved == "python"
        assert resolve_join_backend() == "python"
    assert resolve_join_backend() == before


def test_info_shape(restore_backend):
    with join_backend_override("python"):
        info = join_backend_info()
    assert info["join_backend"] == "python"
    assert info["requested"] == "python"
    assert isinstance(info["native_available"], bool)


def test_native_unavailable_warns_once(restore_backend, caplog, monkeypatch):
    """``native`` without the extension: python fallback, one warning."""
    monkeypatch.setattr(backend, "_import_native", lambda: None)
    backend._warned_unavailable = False
    with caplog.at_level(logging.WARNING, logger="repro.kernel.backend"):
        assert set_join_backend("native") == "python"
        # A second resolution (e.g. a worker re-resolving) stays quiet.
        assert set_join_backend("native") == "python"
    warnings = [
        r for r in caplog.records if "falling back" in r.getMessage()
    ]
    assert len(warnings) == 1
    backend._warned_unavailable = False


@pytest.fixture
def triangle_state():
    schema = Schema(["X", "Y", "Z"])
    instance = Instance(schema)
    for row in [("a", "b", "a"), ("b", "c", "b"), ("a", "c", "a"), ("c", "c", "c")]:
        instance.add(tuple(Const(x) for x in row))
    return instance.kernel_view()


def _walk_results(state):
    """Every walker's observable output on a fixed 2-atom join."""
    # R(x, y, _), R(y, z, _): compose two hops.
    steps = compile_steps([(0, 1, 2), (1, 3, 4)], set())
    seen, out = set(), []
    extend_matches(state, steps, 0, [0] * 5, 5, seen, out, frozenset())
    # The same join with the first atom kept off a delta of two rows
    # (the chase's old/delta split): matches using them there drop out.
    old_steps = compile_steps([(0, 1, 2), (1, 3, 4)], set(), old_before=1)
    delta = set(state.rows_list[:2])
    old_out: list = []
    extend_matches(state, old_steps, 0, [0] * 5, 5, set(), old_out, delta)
    assert set(old_out) < set(out)
    assert all(tuple(key[:3]) not in delta for key in old_out)
    untagged: list = []
    extend_matches(state, steps, 0, [0] * 5, 5, set(), untagged, delta)
    assert untagged == out  # only tagged steps read the delta
    regs = [0] * 5
    found = has_extension(state, steps, 0, regs)
    witness = tuple(regs) if found else None
    # Antecedent R(x, y, _) must extend to R(y, x, _): violated here.
    v_steps = compile_steps([(0, 1, 2)], set())
    activity = compile_steps([(1, 0, 3)], {0, 1})
    v_regs = [0] * 4
    violated = violation_walk(state, v_steps, 0, v_regs, activity)
    v_witness = tuple(v_regs[:2]) if violated else None
    r_regs = [0] * 5
    retracts = retraction_walk(state, steps, 0, r_regs, set())
    return out, old_out, found, witness, violated, v_witness, retracts


@needs_native
def test_walkers_agree_across_backends(triangle_state, restore_backend):
    with join_backend_override("python"):
        expected = _walk_results(triangle_state)
    with join_backend_override("native"):
        actual = _walk_results(triangle_state)
    assert actual == expected


@needs_native
def test_native_state_construction_matches(restore_backend):
    """fill_state (C) and the python _admit loop build identical views."""
    schema = Schema(["X", "Y"])
    rows = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "a")]

    def build(backend_name):
        instance = Instance(schema)
        for row in rows:
            instance.add(tuple(Const(x) for x in row))
        with join_backend_override(backend_name):
            state = instance.kernel_view()
        decode = state.values
        return (
            {tuple(decode[v].name for v in irow) for irow in state.irows},
            {
                (column, decode[vid].name): {
                    tuple(decode[v].name for v in irow) for irow in bucket
                }
                for (column, vid), bucket in state.index.items()
            },
            {state._pos[irow] for irow in state.rows_list},
        )

    assert build("native") == build("python")


@needs_native
def test_outcome_provenance_reports_backend(restore_backend):
    from repro.chase.implication import implies
    from repro.dependencies.parser import parse_td

    schema = Schema(["A", "B", "C"])
    premise = parse_td("R(x, y, z) & R(y, x, z) -> R(x, x, z)", schema)
    target = parse_td("R(a, b, c) & R(b, a, c) -> R(a, a, c)", schema)
    for backend_name in ("python", "native"):
        with join_backend_override(backend_name):
            outcome = implies([premise], target)
        assert outcome.proved
        assert outcome.join_backend == backend_name

"""Join-backend selection: the compiled C walkers vs the pure-python ones.

The join kernel ships two implementations of the same walker semantics:

* **python** — the reference implementation in
  :mod:`repro.kernel.joins`, always present, always correct;
* **native** — :mod:`repro.kernel._native`, a hand-written CPython
  extension compiled at install time when a C toolchain is available
  (``setup.py`` marks it *optional*: a missing compiler degrades the
  wheel to pure python instead of failing the install).

This is the one engine selector in the package, and it is resolved
**once per process**, not per call. The chase, the model checker and
homomorphism search share one set of structurally cached plans, and the
walkers under those plans must agree within a process for provenance on
outcomes to mean anything — so :func:`resolve_join_backend` is a single
cached function and every layer (including forkserver pool workers)
asks it instead of re-reading the environment.

``REPRO_JOIN_BACKEND`` values:

* ``auto`` (default) — native when importable, else python;
* ``native`` — require the extension; when it is absent, log a warning
  **once** and fall back to python (the request is a preference, not a
  hard dependency — behavior is identical either way);
* ``python`` — force the reference implementation (benchmark baselines,
  differential debugging).

Pool workers do not re-derive the answer from their own environment:
the parent ships its *resolved* backend through the worker initializer
(:func:`set_join_backend`), so a pool can never run mixed backends
behind one parent.
"""

from __future__ import annotations

import logging
import os
from types import ModuleType
from typing import Optional

logger = logging.getLogger(__name__)

#: The backend-selector environment variable.
ENV_VAR = "REPRO_JOIN_BACKEND"

#: Accepted ``REPRO_JOIN_BACKEND`` values.
CHOICES = ("auto", "native", "python")

#: Resolved backend name, or None before first resolution.
_resolved: Optional[str] = None

#: The imported native module when the resolved backend is native.
_native_module: Optional[ModuleType] = None

#: Whether the native-requested-but-unavailable warning already fired
#: (the log-once contract: resolution is cached, but tests that reset
#: the cache must not re-spam the log either).
_warned_unavailable = False


def _import_native() -> Optional[ModuleType]:
    """The compiled extension module, or None when not built."""
    try:
        from repro.kernel import _native  # noqa: PLC0415
    except ImportError:
        return None
    return _native


def native_available() -> bool:
    """True when the compiled extension can be imported."""
    return _import_native() is not None


def resolve_join_backend() -> str:
    """The process-wide join backend: ``"native"`` or ``"python"``.

    Resolved once and cached — the parent process and every consumer
    (chase plans, model checks, hom walks, ``/v1/stats``, metric info
    gauges) see one consistent answer. Invalid ``REPRO_JOIN_BACKEND``
    values raise; ``native`` without a built extension warns once and
    falls back to python.
    """
    global _resolved, _native_module, _warned_unavailable
    if _resolved is not None:
        return _resolved
    requested = os.environ.get(ENV_VAR, "auto")
    if requested not in CHOICES:
        raise ValueError(
            f"unknown join backend {requested!r} in ${ENV_VAR} "
            f"(use one of {CHOICES})"
        )
    native = None if requested == "python" else _import_native()
    if requested == "native" and native is None and not _warned_unavailable:
        _warned_unavailable = True
        logger.warning(
            "%s=native requested but repro.kernel._native is not built; "
            "falling back to the pure-python join backend "
            "(build with `pip install .` on a machine with a C compiler, "
            "or `python setup.py build_ext --inplace` in a source tree)",
            ENV_VAR,
        )
    _native_module = native
    _resolved = "python" if native is None else "native"
    return _resolved


def active_native() -> Optional[ModuleType]:
    """The native module when it is the resolved backend, else None.

    This is the per-call dispatch hook the walkers in
    :mod:`repro.kernel.joins` consult; after the first resolution it is
    one module-global read.
    """
    if _resolved is None:
        resolve_join_backend()
    return _native_module


def set_join_backend(backend: Optional[str]) -> str:
    """Re-resolve the process backend from an explicit request.

    Used by pool-worker initializers (the parent ships its *resolved*
    backend so workers cannot drift from it) and by the differential
    test fixtures. ``None`` re-resolves from the environment. Returns
    the newly resolved backend. Safe to call at any time: compiled
    plans are backend-neutral (the native step packing lives in a side
    cache), so switching mid-process cannot poison a plan cache.
    """
    global _resolved, _native_module
    if backend is not None:
        if backend not in CHOICES:
            raise ValueError(
                f"unknown join backend {backend!r} (use one of {CHOICES})"
            )
        os.environ[ENV_VAR] = backend
    _resolved = None
    _native_module = None
    return resolve_join_backend()


class join_backend_override:
    """Context manager pinning the join backend, for tests.

    Restores both the environment variable and the cached resolution on
    exit, so a parametrized differential suite can interleave backends
    without order effects.
    """

    def __init__(self, backend: str):
        self.backend = backend
        self._saved_env: Optional[str] = None

    def __enter__(self) -> str:
        self._saved_env = os.environ.get(ENV_VAR)
        return set_join_backend(self.backend)

    def __exit__(self, *exc_info: object) -> None:
        if self._saved_env is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = self._saved_env
        set_join_backend(None)


def join_backend_info() -> dict[str, object]:
    """A JSON-safe description of the resolved backend, for ``/v1/stats``."""
    return {
        "join_backend": resolve_join_backend(),
        "native_available": native_available(),
        "requested": os.environ.get(ENV_VAR, "auto"),
    }

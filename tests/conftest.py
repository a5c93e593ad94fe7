"""Shared fixtures for the test suite."""

from __future__ import annotations

import threading
import time

import pytest

from repro.kernel.backend import join_backend_override, native_available
from repro.reduction.encode import ReductionEncoding, encode
from repro.relational.instance import Instance
from repro.relational.schema import Schema
from repro.relational.values import Const
from repro.workloads.garment import figure1_dependency, garment_database
from repro.workloads.instances import (
    gap_instance,
    negative_instance,
    positive_instance,
)


@pytest.fixture(params=["python", "native"])
def join_backend(request):
    """Run the requesting test under each join backend in turn.

    The differential suites opt in via
    ``pytestmark = pytest.mark.usefixtures("join_backend")`` — the same
    seeds that hold compiled ≡ legacy then also hold native ≡ python.
    When the native extension is not built, the native leg *skips
    visibly* (never silently passes on the fallback): a CI job that
    built the extension and still reports skips is misconfigured.
    """
    if request.param == "native" and not native_available():
        pytest.skip(
            "repro.kernel._native not built "
            "(python setup.py build_ext --inplace)"
        )
    with join_backend_override(request.param):
        yield request.param


@pytest.fixture
def binary_schema() -> Schema:
    return Schema(["FROM", "TO"])


@pytest.fixture
def ternary_schema() -> Schema:
    return Schema(["SUPPLIER", "STYLE", "SIZE"])


@pytest.fixture
def garments() -> Instance:
    return garment_database()


@pytest.fixture
def fig1():
    return figure1_dependency()


@pytest.fixture
def edge_instance(binary_schema: Schema) -> Instance:
    """A tiny binary instance: a path a -> b -> c."""
    a, b, c = Const("a"), Const("b"), Const("c")
    return Instance(binary_schema, [(a, b), (b, c)])


@pytest.fixture(scope="session")
def positive():
    return positive_instance()


@pytest.fixture(scope="session")
def negative():
    return negative_instance()


@pytest.fixture(scope="session")
def gap():
    return gap_instance()


@pytest.fixture(scope="session")
def positive_encoding(positive) -> ReductionEncoding:
    return encode(positive)


@pytest.fixture(scope="session")
def negative_encoding(negative) -> ReductionEncoding:
    return encode(negative)


class RunGate:
    """Holds an :class:`~repro.service.server.InferenceServer`'s runs.

    Wraps the server's ``_run_group`` (the executor-thread body of one
    run): every run records its size, sets :attr:`entered` and blocks
    until :attr:`release` is set. Queries that arrive while a run is
    held queue up for the next one, so a test can fill the group-commit
    queue deterministically.
    """

    def __init__(self, server):
        self.server = server
        self.entered = threading.Event()
        self.release = threading.Event()
        self.sizes: list[int] = []
        run_group = server._run_group

        def gated(members, budget, derive=False):
            self.sizes.append(len(members))
            self.entered.set()
            self.release.wait(timeout=60)
            return run_group(members, budget, derive)

        server._run_group = gated

    def wait_queued(self, count: int, timeout: float = 30.0) -> None:
        """Block until ``count`` queries wait for the next run."""
        deadline = time.monotonic() + timeout
        while self.server._queued < count:
            assert time.monotonic() < deadline, (
                f"{self.server._queued}/{count} queries queued"
            )
            time.sleep(0.005)


@pytest.fixture
def run_gate():
    """``run_gate(server)`` installs a :class:`RunGate` on ``server``.

    Every gate is released at teardown, so a failing test cannot leave
    a server thread blocked.
    """
    gates: list[RunGate] = []

    def install(server) -> RunGate:
        gates.append(RunGate(server))
        return gates[-1]

    yield install
    for gate in gates:
        gate.release.set()

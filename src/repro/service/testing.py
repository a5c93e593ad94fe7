"""Harness utilities for driving a real ``repro serve`` subprocess.

Shared by the CI smoke script and benchmark E12 (and usable from any
test that wants a server with its own interpreter — and GIL — rather
than the in-process :class:`~repro.service.server.ServerThread`). The
startup-banner contract lives here in one place: ``repro serve`` prints
``listening on http://<host>:<port>`` as its first stdout line.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Optional

#: What `repro serve` prints once the socket is bound.
_BANNER = re.compile(r"http://[\d.]+:\d+")


class ServeSubprocess:
    """One ``repro serve`` child process on an ephemeral port.

    Boots ``python -m repro serve --port 0 <extra_args>`` with ``src/``
    on the child's ``PYTHONPATH``, blocks until the listening banner
    appears, and exposes :attr:`base_url`. Use as a context manager for
    teardown::

        with ServeSubprocess("--workers", "2") as server:
            client = ServiceClient(server.base_url)
    """

    def __init__(
        self,
        *extra_args: str,
        src_dir: Optional[Path] = None,
        startup_timeout: float = 60.0,
    ):
        src = str(
            src_dir
            if src_dir is not None
            else Path(__file__).resolve().parents[2]
        )
        environment = dict(os.environ)
        environment["PYTHONPATH"] = (
            src + os.pathsep + environment["PYTHONPATH"]
            if environment.get("PYTHONPATH")
            else src
        )
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *extra_args],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=environment,
        )
        # A drain thread owns stdout for the child's whole life: it
        # scans *successive* lines for the banner (warnings or other
        # pre-banner noise must not fail the boot), keeps consuming
        # afterwards so a chatty child can never block on a full pipe,
        # and pre-banner output is retained so a crash-on-boot fails
        # fast with the child's traceback instead of a blind timeout.
        self.banner = ""
        self.base_url = ""
        self._pre_banner: list[str] = []
        self._banner_seen = threading.Event()
        self._reader = threading.Thread(target=self._drain_stdout, daemon=True)
        self._reader.start()
        deadline = time.monotonic() + startup_timeout
        while not self._banner_seen.wait(timeout=0.05):
            if self.process.poll() is not None:
                self._reader.join(timeout=5)
                break
            if time.monotonic() >= deadline:
                break
        if not self._banner_seen.is_set():
            output = "".join(self._pre_banner).strip()
            exit_code = self.process.poll()
            self.stop()
            raise RuntimeError(
                "repro serve did not start "
                + (
                    f"(exited {exit_code})"
                    if exit_code is not None
                    else f"(no banner within {startup_timeout}s)"
                )
                + (f"; output:\n{output}" if output else "")
            )

    def _drain_stdout(self) -> None:
        for line in self.process.stdout:
            if not self._banner_seen.is_set():
                match = _BANNER.search(line)
                if match is not None:
                    self.banner = line
                    self.base_url = match.group(0)
                    self._banner_seen.set()
                else:
                    self._pre_banner.append(line)
            # post-banner output is discarded, never left to fill the pipe

    def stop(self) -> None:
        """Terminate the child (escalating to kill if it lingers)."""
        self.process.terminate()
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:  # pragma: no cover - defensive
            self.process.kill()
            self.process.wait(timeout=10)

    def __enter__(self) -> "ServeSubprocess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

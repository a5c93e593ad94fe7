"""``repro serve`` with two benchmark-side hooks, for ``http_mix``.

Runs the CLI's ``serve`` command unchanged in this interpreter, after
wrapping two entry points from outside:

* ``WorkerPool.start`` is timed, so pool start-up shows as its own
  number (``pool.start_s``);
* ``ModelStore.__init__`` keeps a reference to the store, so that after
  shutdown (SIGINT, the CLI's graceful path) every maintained model's
  base facts and chased instance can be written to ``--dump`` and
  checked against a fresh chase by the benchmark.

Usage: ``python3 perfbench/serve.py --dump FILE -- <repro serve args>``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--dump" or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 64
    dump_path = Path(argv[1])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    from repro.cli import main as repro_main
    from repro.io.json_codec import instance_to_json, rows_to_json
    from repro.service.api import ModelStore
    from repro.service.scheduler import WorkerPool

    pool_starts: list[float] = []
    stores: list[ModelStore] = []
    original_start = WorkerPool.start
    original_init = ModelStore.__init__

    def timed_start(self):
        started = time.perf_counter()
        try:
            return original_start(self)
        finally:
            pool_starts.append(time.perf_counter() - started)

    def keep_store(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        stores.append(self)

    WorkerPool.start = timed_start
    ModelStore.__init__ = keep_store
    code = repro_main(["serve", *argv[3:]])
    models = {}
    for store in stores:
        for model_id in store.ids():
            model = store.get(model_id)
            models[model_id] = {
                "base": rows_to_json(model.base),
                "instance": instance_to_json(model.instance),
            }
    dump_path.write_text(
        json.dumps(
            {
                "pool_start_s": pool_starts,
                "models": models,
            }
        )
    )
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

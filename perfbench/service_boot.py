"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/service_boot.py OUT_DIR serve --data-dir D ...

Everything after ``OUT_DIR`` is handed to ``python -m repro``.  The
wrappers go on before the service builds its scheduler, so the worker
pool captures the wrapped job body, and forked workers inherit them.
Spans stay in memory; on drain the service writes
``OUT_DIR/service.spans`` and ``OUT_DIR/service-counts.json``, and each
worker writes ``OUT_DIR/worker-<pid>.spans`` as it exits.
"""

from __future__ import annotations

import json
import os
import sys
from multiprocessing import util

from layers import LayerProbe


def main(argv) -> int:
    out_dir, repro_args = argv[0], argv[1:]
    os.makedirs(out_dir, exist_ok=True)
    probe = LayerProbe()
    probe.install_exp()
    probe.install_service()

    def in_worker(rec) -> None:
        # A forked worker starts with a copy of the parent's spans;
        # keep only its own and write them when the worker exits.
        rec.reset()
        path = os.path.join(out_dir, f"worker-{os.getpid()}.spans")
        util.Finalize(None, rec.dump, args=(path,), exitpriority=10)

    util.register_after_fork(probe.rec, in_worker)

    from repro.__main__ import main as repro_main

    try:
        code = repro_main(repro_args)
    finally:
        probe.uninstall()
        probe.rec.dump(os.path.join(out_dir, "service.spans"))
        with open(os.path.join(out_dir, "service-counts.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(probe.counts, handle)
    return code or 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

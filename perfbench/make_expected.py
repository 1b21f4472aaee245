"""Regenerate the committed expected outputs under ``perfbench/expected``.

Run from the repository root with ``src`` on ``PYTHONPATH``::

    PYTHONPATH=src python3 perfbench/make_expected.py

Writes ``traces.json`` (per trace family and seed: the digest of the
exact engine's full result and of its engine-independent view, for
seeds 0..99 and the held-out seed), ``service.json`` (per seed 0..15
and the held-out seed, the digest of every fuzz case index below
``SERVICE_INDICES``) and ``fig6.txt`` (the rendering of Figure 6 at
paper parameters).  Only a change that alters simulated behaviour on
purpose should need this; a speed-only change must leave all three
files as they are.
"""

from __future__ import annotations

import json
import os

from workloads import EXPECTED_DIR, digest, exact_view, functional_view, trace_inputs

SEEDS = list(range(100))
SERVICE_SEEDS = list(range(16))
SERVICE_INDICES = 1024


def main() -> None:
    from repro.analysis.figures import figure6_bcs
    from repro.engines import get_engine
    from repro.exp.jobs import job_from_payload
    from service import fuzz_payload, result_digest

    with open(os.path.join(os.path.dirname(EXPECTED_DIR), "workloads.json"),
              encoding="utf-8") as handle:
        held_out = json.load(handle)["held_out_seed"]
    engine = get_engine("exact")
    traces = {}
    for family in ("private-hits", "coherence-storm"):
        traces[family] = {}
        for seed in SEEDS + [held_out]:
            result = engine.run(*trace_inputs(family, seed))
            traces[family][str(seed)] = {
                "exact": digest(exact_view(result)),
                "functional": digest(functional_view(result)),
            }
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    with open(os.path.join(EXPECTED_DIR, "traces.json"), "w", encoding="utf-8") as handle:
        json.dump(traces, handle, indent=1, sort_keys=True)
        handle.write("\n")
    rows = {}
    for seed in SERVICE_SEEDS + [held_out]:
        rows[str(seed)] = "".join(
            result_digest(json.loads(json.dumps(
                job_from_payload(fuzz_payload(seed, index)).run())))
            for index in range(SERVICE_INDICES))
    with open(os.path.join(EXPECTED_DIR, "service.json"), "w", encoding="utf-8") as handle:
        json.dump({"indices": SERVICE_INDICES, "seeds": rows}, handle, indent=1)
        handle.write("\n")
    with open(os.path.join(EXPECTED_DIR, "fig6.txt"), "w", encoding="utf-8") as handle:
        handle.write(figure6_bcs().render() + "\n")


if __name__ == "__main__":
    main()

"""Service saturation study.

Three levels, each a fresh in-process service hammered by blocking
clients on worker threads (the same stdlib :class:`~repro.service.
client.ServiceClient` external scripts use — the HTTP layer is
exercised for real, over real sockets):

* ``overlap`` — N clients concurrently submit the *same* small
  campaign of sweep + fuzz jobs.  Measures the dedup layer: the
  unique jobs simulate exactly once, every other submission attaches.
* ``saturation`` — a deliberately starved service (one worker, tiny
  queue) is flooded with unique sleep probes.  Measures load
  shedding: the queue stays bounded and the excess is refused with
  ``429`` + ``Retry-After`` instead of being buffered to death.
* ``cache`` — the ``overlap`` campaign is replayed against a *new*
  service sharing the first one's cache directory.  Measures the
  cross-restart cache path: everything answers from disk, nothing
  re-simulates.

Wall-clock numbers (throughput, drain time) are recorded for humans
but **excluded** from the regression check: only structural counters —
jobs accepted, deduped, answered from cache, completed, whether
shedding engaged — are compared, and those are deterministic, so the
committed ``BENCH_service.json`` is checked exactly.  Every
``repro bench service --check`` also holds the ``overlap`` level to
:func:`overlap_invariants` (dedup exact, one simulation per unique
job, nothing failed, cached or shed).
"""

from __future__ import annotations

import os
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional

from ..errors import IntegrationError
from ..exp.bench import EXACT, BenchSuite
from .client import ServiceClient, ServiceHTTPError
from .config import ServiceConfig

__all__ = [
    "SUITE",
    "ServiceHarness",
    "overlap_invariants",
    "run_suite",
]

#: the overlapping campaign: sweeps + fuzz cases, all deterministic
def overlap_campaign() -> List[Dict[str, Any]]:
    jobs: List[Dict[str, Any]] = [
        {"kind": "sequence", "protocols": ["mei", "mesi"], "wrapped": True},
        {"kind": "sequence", "protocols": ["mei", "mesi"], "wrapped": False},
        {"kind": "sequence", "protocols": ["msi", "mesi"], "wrapped": True},
        {"kind": "sequence", "protocols": ["moesi", "msi"], "wrapped": True},
    ]
    for index in range(2):
        jobs.append(
            {
                "kind": "fuzz_case",
                "seed": 2004,
                "index": index,
                "n_masters": 2,
                "p_deadlock": 0.0,
                "p_unwrapped": 0.0,
                "p_fault": 0.0,
                "fabric": "atomic",
            }
        )
    return jobs


class ServiceHarness:
    """A live service on a background thread, for benches and tests.

    The event loop runs on the thread; the ``with`` body talks to the
    service over real sockets from the calling thread.  Exit drains
    gracefully (asserting the service shuts itself down) unless the
    body already stopped it.
    """

    def __init__(self, config: ServiceConfig, stop_timeout_s: float = 60.0):
        self.config = config
        self.stop_timeout_s = stop_timeout_s
        self.port: Optional[int] = None
        self.service = None
        self._loop = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        import asyncio

        async def main():
            from .server import CampaignService

            self.service = CampaignService(self.config)
            await self.service.start()
            self.port = self.service.port
            self._loop = asyncio.get_running_loop()
            self._ready.set()
            await self.service.wait_stopped()

        try:
            asyncio.run(main())
        except BaseException as exc:  # surfaced by __enter__/__exit__
            self._error = exc
            self._ready.set()

    def __enter__(self) -> "ServiceHarness":
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._error is not None:
            raise IntegrationError(f"service failed to start: {self._error}")
        if self.port is None:
            raise IntegrationError("service did not come up within 30s")
        return self

    def client(self, timeout_s: float = 60.0) -> ServiceClient:
        return ServiceClient(self.config.host, self.port, timeout_s=timeout_s)

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._thread.is_alive() and self.port is not None:
            try:
                self.client().drain()
            except IntegrationError:
                pass  # already stopping
        self._thread.join(timeout=self.stop_timeout_s)
        if self._thread.is_alive():
            raise IntegrationError(
                f"service did not drain within {self.stop_timeout_s}s"
            )
        if self._error is not None and exc_type is None:
            raise IntegrationError(f"service died: {self._error}")


def _fanout(n_clients: int, body) -> List[Any]:
    """Run ``body(client_index)`` on N threads; re-raise the first error."""
    results: List[Any] = [None] * n_clients
    errors: List[BaseException] = []

    def runner(i: int) -> None:
        try:
            results[i] = body(i)
        except BaseException as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=runner, args=(i,)) for i in range(n_clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results


def _level_overlap(
    data_dir: str, n_clients: int, workers: int
) -> Dict[str, Any]:
    campaign = overlap_campaign()
    config = ServiceConfig(data_dir=data_dir, workers=workers)
    started = time.monotonic()
    with ServiceHarness(config) as harness:
        def body(i: int) -> List[str]:
            client = harness.client()
            ids = [client.submit(payload)["job_id"] for payload in campaign]
            for job_id in ids:
                client.wait(job_id, timeout_s=300.0)
            return ids

        all_ids = _fanout(n_clients, body)
        stats = harness.client().stats()
    wall_s = time.monotonic() - started
    counters = stats["counters"]
    unique = len(set(all_ids[0]))
    return {
        "level": "overlap",
        "clients": n_clients,
        "jobs_per_client": len(campaign),
        "unique_jobs": unique,
        "accepted": counters["accepted"],
        "deduped": counters["deduped"],
        "cache_hits": counters["cache_hits"],
        "shed": counters["shed"],
        "completed": counters["terminal_done"],
        "failed": sum(
            counters[f"terminal_{s}"] for s in ("error", "timeout", "crash")
        ),
        "wall_s": round(wall_s, 3),
    }


def _level_saturation(data_dir: str, n_probes: int) -> Dict[str, Any]:
    config = ServiceConfig(
        data_dir=data_dir, workers=1, max_queue=4, allow_probe=True
    )
    started = time.monotonic()
    with ServiceHarness(config) as harness:
        def body(i: int) -> List[str]:
            client = harness.client()
            accepted: List[str] = []
            for j in range(n_probes // 4):
                nonce = i * 1000 + j
                try:
                    verdict = client.submit(
                        {"kind": "probe", "behavior": "sleep",
                         "sleep_s": 0.2, "nonce": nonce}
                    )
                    accepted.append(verdict["job_id"])
                except ServiceHTTPError as exc:
                    if exc.status != 429:
                        raise
                    assert exc.retry_after_s is not None
            return accepted

        per_client = _fanout(4, body)
        # everything admitted must reach a terminal state before drain
        client = harness.client()
        for job_id in (j for ids in per_client for j in ids):
            client.wait(job_id, timeout_s=120.0)
        stats = harness.client().stats()
    wall_s = time.monotonic() - started
    counters = stats["counters"]
    return {
        "level": "saturation",
        "workers": 1,
        "max_queue": 4,
        "offered": 4 * (n_probes // 4),
        "accepted": counters["accepted"],
        "shed": counters["shed"],
        "shed_observed": counters["shed"] > 0,
        "completed": counters["terminal_done"],
        "balance_ok": (
            counters["accepted"] + counters["shed"]
            == counters["submissions"]
        ),
        "all_accepted_completed": (
            counters["terminal_done"] == counters["accepted"]
        ),
        "wall_s": round(wall_s, 3),
    }


def _level_cache(data_dir: str, cache_dir: str) -> Dict[str, Any]:
    campaign = overlap_campaign()
    config = ServiceConfig(data_dir=data_dir, cache_dir=cache_dir, workers=2)
    started = time.monotonic()
    with ServiceHarness(config) as harness:
        client = harness.client()
        verdicts = [client.submit(payload) for payload in campaign]
        stats = client.stats()
    wall_s = time.monotonic() - started
    counters = stats["counters"]
    return {
        "level": "cache",
        "jobs": len(campaign),
        "answered_from_cache": sum(
            1 for v in verdicts if v.get("cached")
        ),
        "cache_hits": counters["cache_hits"],
        # terminal_done counts pool completions only; cache hits never
        # touch a worker, so this is the re-simulation count (want: 0)
        "simulated": counters["terminal_done"],
        "wall_s": round(wall_s, 3),
    }


def run_suite(quick: bool = False) -> Dict[str, Any]:
    """The full study; returns the result document."""
    n_clients = 3
    n_probes = 12 if quick else 40
    with tempfile.TemporaryDirectory(prefix="bench-service-") as tmp:
        overlap_dir = os.path.join(tmp, "overlap")
        levels = [
            _level_overlap(overlap_dir, n_clients=n_clients, workers=2),
            _level_saturation(os.path.join(tmp, "saturation"), n_probes),
            _level_cache(
                os.path.join(tmp, "cache-replay"),
                cache_dir=os.path.join(overlap_dir, "cache"),
            ),
        ]
    return {
        "schema": 1,
        "suite": "service",
        "quick": bool(quick),
        "python": sys.version.split()[0],
        "params": {
            "clients": n_clients,
            "campaign_jobs": len(overlap_campaign()),
            "saturation_probes": 4 * (n_probes // 4),
        },
        "levels": levels,
    }


def overlap_invariants(document: Dict[str, Any]) -> List[str]:
    """Admission arithmetic the ``overlap`` level of every run obeys.

    N concurrent clients submitting the same sweep+fuzz campaign to a
    fresh service must simulate each unique job exactly once, dedup
    every other submission, fail nothing, answer nothing from cache and
    shed nothing.  Returns the violations (empty = pass).
    """
    level = {lvl["level"]: lvl for lvl in document["levels"]}["overlap"]
    failures: List[str] = []
    unique = level["unique_jobs"]
    offered = level["clients"] * level["jobs_per_client"]
    if level["completed"] != unique:
        failures.append(
            f"expected exactly {unique} simulations, saw {level['completed']}"
        )
    if level["failed"]:
        failures.append(f"{level['failed']} jobs failed")
    if level["accepted"] + level["deduped"] != offered:
        failures.append(
            f"admission counters do not add up: accepted={level['accepted']} "
            f"deduped={level['deduped']} offered={offered}"
        )
    if level["deduped"] != offered - unique:
        failures.append(
            f"dedup leak: {offered - unique} duplicate submissions but only "
            f"{level['deduped']} were deduped"
        )
    if level["cache_hits"]:
        failures.append(
            f"fresh data dir answered {level['cache_hits']} cache hits"
        )
    if level["shed"]:
        failures.append(f"unexpected shedding: {level['shed']}")
    return failures


SUITE = BenchSuite(
    name="service",
    bench_file="BENCH_service.json",
    run=run_suite,
    rows="levels",
    key=("level",),
    # per-level fields that must match the baseline exactly (all
    # counters of deterministic admission decisions; never wall-clock)
    checks={
        "overlap": dict.fromkeys(
            ("clients", "jobs_per_client", "unique_jobs", "accepted",
             "deduped", "cache_hits", "shed", "completed", "failed"),
            EXACT,
        ),
        "saturation": dict.fromkeys(
            ("shed_observed", "balance_ok", "all_accepted_completed"), EXACT
        ),
        "cache": dict.fromkeys(
            ("jobs", "answered_from_cache", "cache_hits", "simulated"), EXACT
        ),
    },
    columns=("accepted", "deduped", "shed", "cache_hits", "completed",
             "simulated", "wall_s"),
    invariants=overlap_invariants,
)

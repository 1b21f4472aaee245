"""The parallel sweep runner: fan jobs out, cache results, keep order.

:class:`SweepRunner` executes a list of :class:`~repro.exp.jobs.SimJob`
objects and returns their result dicts *in submission order*, which is
what makes parallel runs byte-identical to serial ones: every job is an
independent deterministic simulation, so only the completion order can
differ, and the runner reassembles results by index before anyone looks
at them.

Per sweep the runner:

1. answers every job whose payload it already finished — earlier in
   this sweep or in any earlier :meth:`~SweepRunner.run` call — from
   that result, so one payload simulates at most once per runner,
2. resolves cache hits (when a cache directory is configured),
3. runs the remaining misses — serially, or over a
   :class:`~repro.exp.procpool.ResilientPool` when ``jobs > 1`` and
   more than one miss is pending (a crashed worker's job is requeued
   with bounded backoff),
4. stores each fresh result back into the cache *as it completes* —
   an interrupted sweep keeps everything already simulated, and a
   rerun re-executes only the unfinished jobs — and
5. appends one :class:`JobRecord` per job (wall time, cache hit,
   worker pid, attempts) to the run manifest.

A runner accumulates records and results across :meth:`run` calls, so
one instance threaded through a whole regeneration (``repro bench
paper``: figures, headlines, ablations) simulates each distinct
payload once and yields a single manifest covering everything.  The
manifest is SIGINT-safe: a ``KeyboardInterrupt`` mid-sweep still
commits the records of every completed job before propagating.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import SimulationError
from .cache import ResultCache, canonical_payload
from .jobs import SimJob
from .procpool import ResilientPool

__all__ = ["JobRecord", "SweepRunner", "run_jobs"]


def _execute(item: Tuple[int, SimJob]) -> Tuple[int, Dict[str, Any], float, int]:
    """Run one job in-process, timing it (the serial path)."""
    index, job = item
    start = time.perf_counter()
    result = job.run()
    return index, result, time.perf_counter() - start, os.getpid()


def _pool_execute(item: Tuple[int, SimJob]) -> Tuple[int, Dict[str, Any]]:
    """Pool worker body (top-level for pickling)."""
    index, job = item
    return index, job.run()


@dataclass
class JobRecord:
    """Manifest entry for one job of a sweep."""

    index: int
    label: str
    key: Optional[str]
    cache_hit: bool
    deduplicated: bool
    wall_s: float
    worker: Optional[int]
    attempts: int = 1


class SweepRunner:
    """Runs job lists over a worker pool with an on-disk result cache.

    ``jobs`` is the worker-pool size (1 = serial, in-process);
    ``cache_dir`` enables the content-addressed result cache.  Results
    come back in submission order regardless of either setting.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        max_attempts: int = 2,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.workers = int(jobs)
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        #: attempts per job before a crashed worker becomes an error
        self.max_attempts = max_attempts
        #: canonical payload -> result of every job this runner finished;
        #: a repeat gets the same dict, so callers never mutate results
        self._done: Dict[str, Dict[str, Any]] = {}
        self.records: List[JobRecord] = []
        self.sweeps = 0
        self.total_wall_s = 0.0

    # -- execution ---------------------------------------------------------
    def run(self, jobs: Sequence[SimJob]) -> List[Dict[str, Any]]:
        """Execute ``jobs``; results are returned in submission order."""
        jobs = list(jobs)
        start = time.perf_counter()
        results: List[Optional[Dict[str, Any]]] = [None] * len(jobs)
        records: List[Optional[JobRecord]] = [None] * len(jobs)

        pending: List[Tuple[int, SimJob]] = []
        keys: Dict[int, Optional[str]] = {}
        payloads: Dict[int, str] = {}
        pending_payloads: Set[str] = set()
        duplicates: List[int] = []  # answered from ``_done`` once it has them
        for index, job in enumerate(jobs):
            payload = job.payload()
            payloads[index] = canonical = canonical_payload(payload)
            key = self.cache.key_for(payload) if self.cache is not None else None
            keys[index] = key
            if canonical in self._done or canonical in pending_payloads:
                duplicates.append(index)
                continue
            cached = self.cache.get(key) if self.cache is not None else None
            if cached is not None:
                results[index] = self._done[canonical] = cached
                records[index] = JobRecord(
                    index, job.label, key, True, False, 0.0, None
                )
                continue
            pending_payloads.add(canonical)
            pending.append((index, job))

        try:
            if pending:
                self._run_pending(pending, jobs, keys, payloads, results, records)
            for index in duplicates:
                results[index] = self._done[payloads[index]]
                records[index] = JobRecord(
                    index, jobs[index].label, keys[index], False, True, 0.0, None
                )
        finally:
            # Commit whatever completed even when a job failed or the
            # user hit Ctrl-C: the manifest never lies about done work.
            base = len(self.records)
            for record in records:
                if record is None:
                    continue  # interrupted before this job finished
                record.index += base
                self.records.append(record)
            self.sweeps += 1
            self.total_wall_s += time.perf_counter() - start
        return results  # type: ignore[return-value]

    def _run_pending(self, pending, jobs, keys, payloads, results, records) -> None:
        """Execute the cache misses, recording each as it completes.

        Fresh results are cached *immediately* (not after the batch), so
        killing the run — or one worker — loses only in-flight jobs.
        """

        def complete(index, result, wall_s, worker, attempts=1):
            results[index] = self._done[payloads[index]] = result
            records[index] = JobRecord(
                index, jobs[index].label, keys[index], False, False,
                wall_s, worker, attempts,
            )
            if self.cache is not None and keys[index] is not None:
                self.cache.put(keys[index], jobs[index].payload(), result)

        if self.workers == 1 or len(pending) == 1:
            for item in pending:
                index, result, wall_s, worker = _execute(item)
                complete(index, result, wall_s, worker)
            return
        pool = ResilientPool(
            _pool_execute,
            workers=min(self.workers, len(pending)),
            max_attempts=self.max_attempts,
        )
        for outcome in pool.map_unordered(pending):
            if not outcome.ok:
                job_index = pending[outcome.index][0]
                raise SimulationError(
                    f"sweep job {jobs[job_index].label!r} "
                    f"{outcome.status} after {outcome.attempts} attempt(s): "
                    f"{outcome.value}"
                )
            index, result = outcome.value
            complete(index, result, outcome.wall_s, outcome.pid, outcome.attempts)

    # -- manifest ----------------------------------------------------------
    @property
    def cache_hits(self) -> int:
        """Jobs answered from the on-disk cache so far."""
        return sum(1 for r in self.records if r.cache_hit)

    @property
    def executed(self) -> int:
        """Simulations actually run (not cached, not deduplicated)."""
        return sum(1 for r in self.records if not r.cache_hit and not r.deduplicated)

    def manifest(self) -> Dict[str, Any]:
        """The run manifest: totals plus one entry per job."""
        sim_wall_s = sum(r.wall_s for r in self.records)
        denominator = self.workers * self.total_wall_s
        return {
            "workers": self.workers,
            "cache_dir": self.cache.root if self.cache is not None else None,
            "cache_version": self.cache.version if self.cache is not None else None,
            "cache_engine": self.cache.engine if self.cache is not None else None,
            "sweeps": self.sweeps,
            "n_jobs": len(self.records),
            "cache_hits": self.cache_hits,
            "deduplicated": sum(1 for r in self.records if r.deduplicated),
            "executed": self.executed,
            "wall_s": round(self.total_wall_s, 6),
            "sim_wall_s": round(sim_wall_s, 6),
            "worker_utilisation": (
                round(sim_wall_s / denominator, 4) if denominator > 0 else 0.0
            ),
            "jobs": [asdict(r) for r in self.records],
        }

    def write_manifest(self, path: str) -> None:
        """Write :meth:`manifest` as JSON to ``path``, atomically.

        Concurrent writers (two sweep processes sharing a manifest
        path, or a crash mid-dump) must never leave a torn half-JSON
        file behind: the manifest is staged in a temp file next to the
        target and published with one :func:`os.replace`, so readers
        only ever see a complete old or complete new manifest.
        """
        directory = os.path.dirname(path) or "."
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(self.manifest(), handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    def summary(self) -> str:
        """One-line human summary of the manifest totals."""
        m = self.manifest()
        return (
            f"{m['n_jobs']} jobs: {m['executed']} simulated, "
            f"{m['cache_hits']} cache hits, {m['deduplicated']} deduplicated "
            f"({m['workers']} workers, {m['wall_s']:.2f}s wall, "
            f"utilisation {m['worker_utilisation']:.0%})"
        )


def run_jobs(
    jobs: Sequence[SimJob], runner: Optional[SweepRunner] = None
) -> List[Dict[str, Any]]:
    """Run ``jobs`` through ``runner`` (a fresh serial runner when None)."""
    if runner is None:
        runner = SweepRunner()
    return runner.run(jobs)

"""Admission, dedup, shedding, dispatch: the service's brain.

The scheduler owns all job state.  It runs on the asyncio event loop;
the only blocking work — waiting on the worker pool's result queue —
happens in :meth:`Scheduler.pump` via ``run_in_executor``, so one
OS thread bridges the loop and the :class:`~repro.exp.procpool.
ResilientPool` fleet (the pool's ``submit`` is lock-protected for
exactly this pattern).

Admission discipline, in order:

1. **draining?** → :class:`DrainingError` (HTTP 503 + Retry-After);
2. **payload valid?** → :class:`~repro.errors.ConfigError` (HTTP 400);
   probe jobs additionally require ``allow_probe``;
3. **known job id?** → the submission *attaches* to the existing entry
   (terminal entries answer immediately; live ones dedup — identical
   jobs from N clients simulate once);
4. **cached?** → the entry is born ``done`` without touching a worker;
5. **queue full?** → :class:`QueueFullError` (HTTP 429 + Retry-After,
   load shedding — the queue is bounded, memory is not the backstop);
6. otherwise journal the submission, then hand it to the pool.

The journal line precedes the pool handoff, so a crash between the
two re-runs the job on recovery instead of losing it.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, List, Optional

from ..errors import ConfigError, ReproError
from ..exp.cache import ResultCache
from ..exp.jobs import job_from_payload
from ..exp.procpool import PoolResult, ResilientPool
from .config import ServiceConfig
from .jobs import execute_submission
from .state import TERMINAL_STATUSES, Journal, load_journal

__all__ = ["DrainingError", "JobEntry", "QueueFullError", "Scheduler"]


class QueueFullError(ReproError):
    """Admission refused: the bounded queue is at capacity."""

    def __init__(self, retry_after_s: int):
        super().__init__(
            f"queue full; retry after {retry_after_s}s"
        )
        self.retry_after_s = retry_after_s


class DrainingError(ReproError):
    """Admission refused: the service is draining for shutdown."""

    def __init__(self):
        super().__init__("service is draining; not accepting jobs")
        self.retry_after_s = 30


class JobEntry:
    """One job's full lifecycle, shared by every client that asked."""

    __slots__ = (
        "job_id", "payload", "label", "cacheable", "status", "detail",
        "result", "attempts", "max_attempts", "backoff_s", "submitters",
        "pool_index", "terminal_event", "subscribers", "recovered",
        "served_from_cache",
    )

    def __init__(
        self, job_id: str, payload: Dict[str, Any], label: str,
        cacheable: bool,
    ):
        self.job_id = job_id
        self.payload = payload
        self.label = label
        self.cacheable = cacheable
        self.status = "queued"
        self.detail: Optional[str] = None
        self.result: Optional[Dict[str, Any]] = None
        self.attempts = 0
        self.max_attempts = 1
        self.backoff_s = 0.0
        self.submitters = 1
        self.pool_index: Optional[int] = None
        self.terminal_event = asyncio.Event()
        #: per-SSE-connection queues fed on every status transition
        self.subscribers: List[asyncio.Queue] = []
        self.recovered = False
        self.served_from_cache = False

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATUSES

    def to_dict(self, include_result: bool = True) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "job_id": self.job_id,
            "kind": self.payload.get("kind"),
            "label": self.label,
            "status": self.status,
            "attempts": self.attempts,
            "submitters": self.submitters,
        }
        if self.detail is not None:
            data["detail"] = self.detail
        if self.max_attempts > 1:
            data["max_attempts"] = self.max_attempts
        if self.backoff_s:
            data["backoff_s"] = self.backoff_s
        if self.recovered:
            data["recovered"] = True
        if self.served_from_cache:
            data["served_from_cache"] = True
        if include_result and self.result is not None:
            data["result"] = self.result
        return data


class Scheduler:
    """Owns entries, counters, the journal, the cache and the pool."""

    def __init__(self, config: ServiceConfig, cache: Optional[ResultCache] = None):
        self.config = config
        self.cache = cache if cache is not None else ResultCache(
            config.resolved_cache_dir
        )
        self.journal = Journal(config.journal_path)
        self.pool = ResilientPool(
            execute_submission,
            workers=config.workers,
            timeout_s=config.timeout_s,
            max_attempts=config.max_attempts,
            backoff_s=config.backoff_s,
            backoff_cap_s=config.backoff_cap_s,
        )
        self.jobs: Dict[str, JobEntry] = {}
        self._by_pool_index: Dict[int, str] = {}
        self.draining = False
        self.started_at = time.monotonic()
        self.stats_counters: Dict[str, int] = {
            "submissions": 0,
            "accepted": 0,
            "deduped": 0,
            "cache_hits": 0,
            "shed": 0,
            "rejected": 0,
            "recovered_done": 0,
            "recovered_requeued": 0,
            "streams_opened": 0,
            "streams_closed": 0,
        }
        for status in TERMINAL_STATUSES:
            self.stats_counters[f"terminal_{status}"] = 0
        #: watchdog's latest verdict (pids busy past the stall threshold)
        self.stalled_workers: List[Dict[str, Any]] = []

    # -- recovery ------------------------------------------------------------
    def recover(self) -> None:
        """Replay the journal: restore terminal jobs, requeue the rest.

        Pending jobs whose result made it into the cache before the
        crash complete here without re-simulation (the cache write
        precedes the journal's terminal line, so the crash window
        between the two is exactly what this heals).
        """
        for job_id, old in load_journal(self.config.journal_path).items():
            entry = JobEntry(
                job_id, old.payload,
                self._label_for(old.payload), old.cacheable,
            )
            entry.recovered = True
            if old.terminal:
                entry.status = old.status
                entry.detail = old.detail
                entry.attempts = old.attempts
                entry.served_from_cache = old.served_from_cache
                entry.result = (
                    old.result if old.result is not None
                    else (self.cache.get(job_id) if old.cacheable else None)
                )
                entry.terminal_event.set()
                self.stats_counters["recovered_done"] += 1
            else:
                cached = self.cache.get(job_id) if old.cacheable else None
                if cached is not None:
                    entry.status = "done"
                    entry.result = cached
                    entry.served_from_cache = True
                    entry.terminal_event.set()
                    self.journal.terminal(
                        job_id, "done", served_from_cache=True
                    )
                    self.stats_counters["recovered_done"] += 1
                else:
                    entry.pool_index = self.pool.submit((job_id, old.payload))
                    self._by_pool_index[entry.pool_index] = job_id
                    self.stats_counters["recovered_requeued"] += 1
            self.jobs[job_id] = entry

    @staticmethod
    def _label_for(payload: Dict[str, Any]) -> str:
        try:
            return job_from_payload(payload).label
        except ReproError:
            return payload.get("kind", "?")

    # -- admission -----------------------------------------------------------
    def queue_depth(self) -> int:
        """Jobs admitted but not yet running (the bounded queue)."""
        return self.pool.queued

    def retry_after_s(self) -> int:
        """Deterministic Retry-After hint: queue drain time, bounded."""
        per_job = self.config.timeout_s or 60.0
        estimate = self.queue_depth() * per_job / max(self.config.workers, 1)
        return max(1, min(int(estimate), 60))

    def submit(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Admit one submission; returns the admission verdict.

        Raises :class:`DrainingError`, :class:`QueueFullError` or
        :class:`~repro.errors.ConfigError` when the job is refused.
        """
        self.stats_counters["submissions"] += 1
        if self.draining:
            raise DrainingError()
        if not isinstance(payload, dict):
            self.stats_counters["rejected"] += 1
            raise ConfigError("job payload must be a JSON object")
        try:
            job = job_from_payload(payload)
        except ReproError:
            self.stats_counters["rejected"] += 1
            raise
        if job.kind == "probe" and not self.config.allow_probe:
            self.stats_counters["rejected"] += 1
            raise ConfigError(
                "probe jobs are disabled (start the service with "
                "--allow-probe to run chaos drills)"
            )
        payload = job.payload()  # canonical form, not the client's spelling
        job_id = self.cache.key_for(payload)

        existing = self.jobs.get(job_id)
        if existing is not None:
            existing.submitters += 1
            self.stats_counters["deduped"] += 1
            return {
                "job_id": job_id,
                "status": existing.status,
                "deduped": True,
            }

        entry = JobEntry(job_id, payload, job.label, job.cacheable)
        cached = self.cache.get(job_id) if job.cacheable else None
        if cached is not None:
            entry.status = "done"
            entry.result = cached
            entry.served_from_cache = True
            entry.terminal_event.set()
            self.jobs[job_id] = entry
            self.stats_counters["cache_hits"] += 1
            self.stats_counters["accepted"] += 1
            self.journal.submitted(job_id, payload, job.cacheable)
            self.journal.terminal(job_id, "done", served_from_cache=True)
            return {"job_id": job_id, "status": "done", "cached": True}

        if self.queue_depth() >= self.config.max_queue:
            self.stats_counters["shed"] += 1
            raise QueueFullError(self.retry_after_s())

        self.journal.submitted(job_id, payload, job.cacheable)
        entry.pool_index = self.pool.submit((job_id, payload))
        self._by_pool_index[entry.pool_index] = job_id
        self.jobs[job_id] = entry
        self.stats_counters["accepted"] += 1
        return {"job_id": job_id, "status": "queued"}

    # -- the worker bridge ---------------------------------------------------
    async def pump(self) -> None:
        """Drive the pool until cancelled: one poll per iteration."""
        loop = asyncio.get_running_loop()
        while True:
            result = await loop.run_in_executor(None, self.pool.poll)
            if result is not None:
                self._on_terminal(result)
            self._sync_running()

    def _sync_running(self) -> None:
        """Propagate queued -> running for newly assigned pool jobs."""
        for index in self.pool.active_indices():
            job_id = self._by_pool_index.get(index)
            if job_id is None:
                continue
            entry = self.jobs.get(job_id)
            if entry is not None and entry.status == "queued":
                entry.status = "running"
                self._notify(entry)

    def _on_terminal(self, result: PoolResult) -> None:
        """Record one pool outcome: cache, journal, wake the waiters."""
        job_id = self._by_pool_index.pop(result.index, None)
        if job_id is None:
            return
        entry = self.jobs.get(job_id)
        if entry is None or entry.terminal:
            return
        entry.attempts = result.attempts
        entry.max_attempts = result.max_attempts
        entry.backoff_s = result.backoff_s
        if result.ok:
            _, result_dict = result.value
            entry.status = "done"
            entry.result = result_dict
            if entry.cacheable:
                # Cache first, journal second: recovery treats a cached
                # result as completed even if the crash eats the
                # journal line.
                self.cache.put(job_id, entry.payload, result_dict)
                self.journal.terminal(
                    job_id, "done", attempts=result.attempts
                )
            else:
                self.journal.terminal(
                    job_id, "done", result=result_dict,
                    attempts=result.attempts,
                )
        else:
            entry.status = result.status  # "error" | "timeout" | "crash"
            entry.detail = str(result.value)
            self.journal.terminal(
                job_id, result.status, detail=entry.detail,
                attempts=result.attempts,
            )
        self.stats_counters[f"terminal_{entry.status}"] += 1
        entry.terminal_event.set()
        self._notify(entry)

    def _notify(self, entry: JobEntry) -> None:
        event = entry.to_dict()
        for queue in list(entry.subscribers):
            queue.put_nowait(event)

    # -- watchdog ------------------------------------------------------------
    def heartbeat_check(self) -> List[Dict[str, Any]]:
        """The PR 3 heartbeat pattern, service-grade.

        A worker whose current assignment has been held longer than
        ``stall_threshold_s`` has a flat heartbeat; the per-attempt
        deadline will reap it eventually, but /readyz flips early so
        orchestrators stop routing new campaigns at a wedged fleet.
        """
        stalled = []
        for view in self.pool.worker_snapshot():
            if view["index"] is None or not view["alive"]:
                continue
            if view["busy_s"] > self.config.stall_threshold_s:
                job_id = self._by_pool_index.get(view["index"])
                stalled.append(
                    {
                        "pid": view["pid"],
                        "job_id": job_id,
                        "busy_s": view["busy_s"],
                        "attempt": view["attempt"],
                    }
                )
        self.stalled_workers = stalled
        return stalled

    async def watchdog(self) -> None:
        """Periodic heartbeat sampling until cancelled."""
        while True:
            await asyncio.sleep(self.config.watchdog_interval_s)
            self.heartbeat_check()

    # -- shutdown ------------------------------------------------------------
    async def drain(self, timeout_s: Optional[float] = None) -> int:
        """Refuse new work, finish everything in flight, flush, stop.

        Returns the number of jobs completed during the drain.  The
        pump keeps running while we wait — it is the thing completing
        the work — so this only watches the outstanding counter.
        """
        self.draining = True
        completed = 0
        deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )
        before = self.stats_counters_total_terminal()
        while self.pool.outstanding:
            if deadline is not None and time.monotonic() > deadline:
                break
            await asyncio.sleep(0.02)
        completed = self.stats_counters_total_terminal() - before
        return completed

    def stats_counters_total_terminal(self) -> int:
        return sum(
            self.stats_counters[f"terminal_{status}"]
            for status in TERMINAL_STATUSES
        )

    def shutdown(self) -> None:
        """Synchronous teardown: kill the fleet, close the journal."""
        self.pool.close()
        self.journal.close()

    # -- introspection -------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        ready = not self.draining
        return {
            "config": self.config.to_dict(),
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "draining": self.draining,
            "ready": ready,
            "jobs_known": len(self.jobs),
            "queue_depth": self.queue_depth(),
            "in_flight": len(self.pool.active_indices()),
            "outstanding": self.pool.outstanding,
            "workers": self.pool.worker_snapshot(),
            "replaced_workers": self.pool.replaced_workers,
            "stalled_workers": self.stalled_workers,
            "counters": dict(sorted(self.stats_counters.items())),
            "cache": {
                "entries": len(self.cache),
                "quarantined": self.cache.quarantined,
                "migrated": self.cache.migrated,
            },
        }

"""A crash-proof process pool: timeouts, kill-and-requeue, streaming.

:mod:`multiprocessing.Pool` has two failure modes that matter to long
campaigns: a *hung* worker stalls ``map`` forever, and a *crashed*
worker (segfault, ``os._exit``, OOM kill) poisons the pool.  Both lose
every in-flight result.  :class:`ResilientPool` exists so one bad job
costs exactly one job:

* each worker owns a private task queue and holds **one** job at a
  time, so the parent always knows which job a dead or wedged worker
  was running;
* a job past its deadline gets its worker killed and is **requeued**
  (bounded attempts, capped exponential backoff) or reported as
  ``"timeout"``;
* a worker that dies mid-job is replaced and the job is requeued the
  same way, ending in ``"crash"`` when the attempts run out;
* an exception *raised* by the job function is deterministic, so it is
  reported once as ``"error"`` (traceback text attached), not retried;
* results stream back **unordered** as they complete, so callers can
  persist each one immediately — a SIGINT then loses nothing that
  already finished;
* a worker orphaned by a parent ``kill -9`` (which tears down no
  children) notices the reparenting within a second and exits on its
  own — no leaked fleet idling forever.

The pool has two modes sharing one engine:

* **batch** — :meth:`map_unordered` runs a fixed item list to
  completion (the sweep runner and fuzz campaigns use this); every
  item yields exactly one :class:`PoolResult`;
* **persistent** — :meth:`start` boots a long-lived worker fleet,
  :meth:`submit` feeds it one item at a time (straight to an idle
  worker when there is one), :meth:`poll` waits for, reaps and
  retries, returning at most one terminal result per call, and
  :meth:`close` tears the fleet down — ``close(drain=True)`` finishes
  every in-flight and queued job first (graceful drain), the default
  ``drain=False`` is the kill-oriented teardown batch mode always had.
  The campaign service's worker bridge is built on this mode.

A job is handed to an idle worker the moment one can exist: when the
job is submitted, when the fleet starts, and when a worker's result is
collected (which frees it).  None of these waits for the next
:meth:`poll`, so a job never sits queued beside an idle worker for the
length of a poll's wait.  A backed-off retry is released at the first
poll after it falls due.

Requeue backoff is **deterministic**: attempt ``k`` of a job waits
``min(backoff_s * 2**(k-1), backoff_cap_s)`` seconds before it becomes
runnable again — no jitter, no randomness — so a replayed schedule of
submissions produces the same retry timeline.

The pool is deliberately dumb about scheduling (due retries first,
then the oldest submission, each to the first idle worker) and smart
about accounting: every submitted item eventually yields exactly one
:class:`PoolResult`.

Threading: :meth:`submit` may run on another thread than the one
driving :meth:`poll` (the service's HTTP loop submits while its worker
bridge polls).  Every read or write of a worker's assignment and of
the fleet's slots happens under one lock, and the lock is never held
across a process start, ``join``, ``terminate`` or ``kill`` — so a
submission never waits on a worker being replaced.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import signal
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["PoolResult", "ResilientPool"]

#: how long the parent blocks on the result queue per monitor iteration
_POLL_S = 0.02


@dataclass
class PoolResult:
    """Terminal outcome of one submitted item."""

    index: int
    #: "ok" | "error" (job fn raised) | "timeout" | "crash"
    status: str
    #: the job's return value when ok; a diagnostic string otherwise
    value: Any
    wall_s: float
    pid: Optional[int]
    attempts: int
    #: the pool's attempt ceiling this job ran under (diagnostic)
    max_attempts: int = 1
    #: total deterministic backoff delay scheduled across requeues
    backoff_s: float = 0.0

    @property
    def ok(self) -> bool:
        """True when the job function returned normally."""
        return self.status == "ok"


def _worker_main(
    fn: Callable[[Any], Any], task_queue, result_queue, owner_pid: int
) -> None:
    """Worker loop: one task at a time, sentinel ``None`` stops it.

    ``owner_pid`` is the pool owner's pid *captured in the parent
    before the fork* — reading ``os.getppid()`` here instead would
    race: a child first scheduled after its parent already died
    records init's pid and can never notice the orphaning.
    """
    # A forked worker inherits the parent's signal plumbing.  When the
    # parent is an asyncio process with ``add_signal_handler`` installed
    # (the campaign service), SIGTERM delivery is a byte written to a
    # wakeup socketpair — *shared* across fork.  Left as-is, killing a
    # hung worker with terminate() would inject a phantom SIGTERM into
    # the parent's event loop (graceful-draining the whole service) and
    # the worker itself would swallow the signal instead of dying.
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    pid = os.getpid()
    while True:
        # Block in short slices so a worker orphaned by a parent
        # ``kill -9`` (which tears down no children) notices the
        # reparenting and exits instead of idling forever.
        try:
            task = task_queue.get(timeout=1.0)
        except queue.Empty:
            if os.getppid() != owner_pid:
                break
            continue
        if task is None:
            break
        index, item = task
        start = time.perf_counter()
        try:
            value = fn(item)
        except KeyboardInterrupt:  # parent is shutting down; don't report
            break
        except BaseException:
            result_queue.put(
                (pid, index, "error", traceback.format_exc(),
                 time.perf_counter() - start)
            )
        else:
            result_queue.put(
                (pid, index, "ok", value, time.perf_counter() - start)
            )


class _Worker:
    """One worker process plus the parent-side view of its assignment."""

    __slots__ = ("process", "task_queue", "current", "assigned_at")

    def __init__(self, fn, result_queue):
        self.task_queue = multiprocessing.Queue()
        self.process = multiprocessing.Process(
            target=_worker_main,
            args=(fn, self.task_queue, result_queue, os.getpid()),
            daemon=True,
        )
        self.process.start()
        self.current: Optional[Tuple[int, Any, int]] = None  # (index, item, attempt)
        self.assigned_at = 0.0

    def assign(self, job: Tuple[int, Any, int]) -> None:
        index, item, _attempt = job
        self.current = job
        self.assigned_at = time.monotonic()
        self.task_queue.put((index, item))

    @property
    def idle(self) -> bool:
        return self.current is None and self.process.is_alive()

    def kill(self) -> None:
        """Terminate a wedged worker now; escalate to SIGKILL."""
        self.process.terminate()
        self.process.join(timeout=1.0)
        if self.process.is_alive():  # pragma: no cover - kill escalation
            self.process.kill()
            self.process.join(timeout=1.0)

    def stop(self) -> None:
        """Best-effort graceful stop; escalate to terminate."""
        if self.process.is_alive():
            try:
                self.task_queue.put_nowait(None)
            except Exception:
                pass
        self.process.join(timeout=0.2)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=1.0)
        self.task_queue.close()


class ResilientPool:
    """Run ``fn`` over items in worker subprocesses, surviving the workers.

    ``timeout_s`` is the per-attempt deadline (None = no deadline);
    ``max_attempts`` bounds how often a hung or crashed job is requeued
    before it is reported as ``"timeout"`` / ``"crash"``;
    ``backoff_s`` seeds the capped exponential requeue delay
    (attempt ``k`` waits ``min(backoff_s * 2**(k-1), backoff_cap_s)``).

    Batch mode (:meth:`map_unordered`) is self-contained.  Persistent
    mode is ``start()`` + ``submit()`` + ``poll()`` + ``close()``;
    ``submit`` may be called from a different thread than the one
    driving ``poll`` (the service's HTTP loop submits while the worker
    bridge polls) — worker assignments, fleet slots and shared
    accounting are lock-protected.
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        workers: int = 1,
        timeout_s: Optional[float] = None,
        max_attempts: int = 2,
        backoff_s: float = 0.05,
        backoff_cap_s: float = 2.0,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.fn = fn
        self.workers = int(workers)
        self.timeout_s = timeout_s
        self.max_attempts = int(max_attempts)
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        #: terminal non-ok outcomes observed across the pool's lifetime
        self.failures: List[PoolResult] = []
        # -- engine state (persistent + batch share it) --------------------
        self._lock = threading.Lock()
        self._result_queue: Any = None
        self._pool: List[_Worker] = []
        self._ready: List[Tuple[int, Any, int]] = []  # LIFO, retries first
        self._retries: List[Tuple[float, Tuple[int, Any, int]]] = []
        self._done: set = set()
        self._backoff_spent: Dict[int, float] = {}
        self._outstanding = 0
        self._next_index = 0
        self._started = False
        self._replaced_workers = 0

    # -- lifecycle -----------------------------------------------------------
    @property
    def started(self) -> bool:
        """True between :meth:`start` and :meth:`close`."""
        return self._started

    @property
    def outstanding(self) -> int:
        """Submitted items that have not yet reached a terminal result."""
        return self._outstanding

    @property
    def queued(self) -> int:
        """Submitted items waiting for a worker (ready + backing off)."""
        with self._lock:
            return len(self._ready) + len(self._retries)

    @property
    def replaced_workers(self) -> int:
        """Workers killed-and-replaced (crash or timeout) so far."""
        return self._replaced_workers

    def backoff_delay(self, attempt: int) -> float:
        """Deterministic requeue delay before attempt ``attempt + 1``."""
        return min(self.backoff_s * (2 ** (attempt - 1)), self.backoff_cap_s)

    def start(self, n_workers: Optional[int] = None) -> None:
        """Boot the worker fleet (idempotent); queued items start at once."""
        if self._started:
            return
        self._result_queue = multiprocessing.Queue()
        fleet = [
            _Worker(self.fn, self._result_queue)
            for _ in range(n_workers if n_workers is not None else self.workers)
        ]
        with self._lock:
            self._pool = fleet
            self._dispatch()
        self._started = True

    def submit(self, item: Any) -> int:
        """Queue one item; returns its pool index (submission order).

        An idle worker takes the item before this returns.  Legal
        before :meth:`start` — the item waits in the ready queue until
        a fleet exists (recovery replays submissions this way).
        """
        with self._lock:
            index = self._next_index
            self._next_index += 1
            self._outstanding += 1
            self._ready.insert(0, (index, item, 1))
            self._dispatch()
        return index

    def close(
        self, drain: bool = False, timeout_s: Optional[float] = None
    ) -> List[PoolResult]:
        """Tear the fleet down; with ``drain=True`` finish all work first.

        Draining polls until every outstanding job reached a terminal
        result (collected and returned), or ``timeout_s`` elapsed —
        whatever is still running then is abandoned with the workers.
        The default is the kill-oriented teardown: workers are stopped
        where they stand and outstanding jobs are simply dropped.
        """
        drained: List[PoolResult] = []
        if drain and self._started:
            deadline = (
                time.monotonic() + timeout_s if timeout_s is not None else None
            )
            while self._outstanding:
                if deadline is not None and time.monotonic() > deadline:
                    break
                result = self.poll()
                if result is not None:
                    drained.append(result)
        with self._lock:
            fleet, self._pool = self._pool, []
        for worker in fleet:
            worker.stop()
        if self._result_queue is not None:
            self._result_queue.close()
            self._result_queue = None
        self._started = False
        return drained

    # -- execution -----------------------------------------------------------
    def map_unordered(self, items: Sequence[Any]) -> Iterator[PoolResult]:
        """Yield one :class:`PoolResult` per item, in completion order."""
        items = list(items)
        if not items:
            return
        self.start(n_workers=min(self.workers, len(items)))
        try:
            for item in items:
                self.submit(item)
            while self._outstanding:
                result = self.poll()
                if result is not None:
                    yield result
        finally:
            self.close()

    def poll(self, timeout: float = _POLL_S) -> Optional[PoolResult]:
        """One monitor iteration: release due retries, wait, reap.

        Waits up to ``timeout`` for a worker's result, then reaps
        crashed and overdue workers.  Returns a terminal
        :class:`PoolResult` when one completed, else None.  Call
        repeatedly from one thread; each submitted item produces
        exactly one result across calls.
        """
        now = time.monotonic()
        with self._lock:
            for due, job in list(self._retries):
                if due <= now:
                    self._retries.remove((due, job))
                    self._ready.append(job)  # retries jump the line
            self._dispatch()
        result = self._poll_queue(timeout)
        if result is not None:
            if result.index in self._done:
                return None  # stale duplicate from a timed-out attempt
            self._done.add(result.index)
            with self._lock:
                self._outstanding -= 1
            if not result.ok:
                self.failures.append(result)
            return result
        return self._reap_workers(time.monotonic())

    def _dispatch(self) -> None:
        """Give ready jobs to idle workers; the caller holds the lock.

        ``_ready`` pops from its end, where promoted retries land, so
        retries go first and then submissions, oldest first.
        """
        for worker in self._pool:
            if not self._ready:
                return
            if worker.idle:
                worker.assign(self._ready.pop())

    def _reap_workers(self, now: float) -> Optional[PoolResult]:
        """Detect crashed/overdue workers; at most one terminal result.

        Only the verdict and the slot swap hold the lock: a concurrent
        :meth:`submit` never waits on a process start, stop or kill.
        """
        for slot in range(len(self._pool)):
            with self._lock:
                worker = self._pool[slot]
                job = worker.current
                status = self._reap_status(worker, now)
            if status is None:
                continue
            replacement = _Worker(self.fn, self._result_queue)
            if status == "timeout":
                worker.kill()
            else:
                worker.stop()
            with self._lock:
                self._pool[slot] = replacement
            self._replaced_workers += 1
            if job is None:
                continue  # an idle worker died: capacity restored
            index, item, attempt = job
            if index in self._done:
                continue
            if attempt < self.max_attempts:
                delay = self.backoff_delay(attempt)
                with self._lock:
                    self._backoff_spent[index] = (
                        self._backoff_spent.get(index, 0.0) + delay
                    )
                    self._retries.append((now + delay, (index, item, attempt + 1)))
                continue
            self._done.add(index)
            with self._lock:
                self._outstanding -= 1
                backoff_spent = self._backoff_spent.get(index, 0.0)
            failure = PoolResult(
                index=index,
                status=status,
                value=(
                    f"job {status} after {attempt} attempt(s)"
                    + (f" (deadline {self.timeout_s}s)"
                       if status == "timeout" else "")
                ),
                wall_s=now - worker.assigned_at,
                pid=None,
                attempts=attempt,
                max_attempts=self.max_attempts,
                backoff_s=backoff_spent,
            )
            self.failures.append(failure)
            return failure
        return None

    def _reap_status(self, worker: _Worker, now: float) -> Optional[str]:
        """Why ``worker`` must be replaced, or None; caller holds the lock.

        ``"crash"`` for a dead worker (busy or idle), ``"timeout"`` for
        a live one past its deadline.  Neither can change under the
        caller afterwards: only an idle *live* worker takes new work,
        and only the polling thread frees a busy one.
        """
        if not worker.process.is_alive():
            return "crash"
        if (
            worker.current is not None
            and self.timeout_s is not None
            and now - worker.assigned_at > self.timeout_s
        ):
            return "timeout"
        return None

    # -- monitoring ----------------------------------------------------------
    def _poll_queue(self, timeout: float) -> Optional[PoolResult]:
        """One bounded wait on the result queue; frees and refills the sender."""
        try:
            pid, index, status, value, wall_s = self._result_queue.get(
                timeout=timeout
            )
        except Exception:  # queue.Empty (raised lazily via multiprocessing)
            return None
        attempts = 1
        with self._lock:
            for worker in self._pool:
                if worker.process.pid == pid and worker.current is not None:
                    if worker.current[0] == index:
                        attempts = worker.current[2]
                        worker.current = None
                        self._dispatch()
                    break
            backoff_spent = self._backoff_spent.get(index, 0.0)
        return PoolResult(
            index=index, status=status, value=value,
            wall_s=wall_s, pid=pid, attempts=attempts,
            max_attempts=self.max_attempts, backoff_s=backoff_spent,
        )

    # -- introspection -------------------------------------------------------
    def worker_snapshot(self) -> List[Dict[str, Any]]:
        """Parent-side view of every worker (for /stats and watchdogs)."""
        snapshot = []
        now = time.monotonic()
        with self._lock:
            for worker in self._pool:
                current = worker.current
                snapshot.append(
                    {
                        "pid": worker.process.pid,
                        "alive": worker.process.is_alive(),
                        "index": current[0] if current is not None else None,
                        "attempt": current[2] if current is not None else None,
                        "busy_s": (
                            round(now - worker.assigned_at, 6)
                            if current is not None else 0.0
                        ),
                    }
                )
        return snapshot

    def active_indices(self) -> List[int]:
        """Pool indices currently assigned to a live worker."""
        with self._lock:
            return [
                worker.current[0]
                for worker in self._pool
                if worker.current is not None and worker.process.is_alive()
            ]

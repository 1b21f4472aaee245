"""How fast the host processor runs right now, sampled beside the program.

The benchmark runs on virtual processors of a shared host.  Measured on
a 2-vCPU Xeon microVM, each vCPU switches between a fast and a slow
state (a fixed pure-Python loop takes 0.72 ms in one, 1.35-1.5 ms in
the other), independently per vCPU, many times a second, and the share
of time spent in each varies from run to run.  A wall-clock median then
moves by a quarter or more between runs of the same code, which hides
any change smaller than that.

A ``SpeedSampler`` times a fixed reference loop once per 10 ms of
processor time its process uses (a ``SIGPROF`` interval timer; the loop
runs in the main thread between two bytecodes of the workload, on the
vCPU the workload is running on), in processor time
(``time.thread_time``), so being descheduled does not count.  Each
sample is ``(monotonic time, seconds the loop took)``.  Dividing a wall
time by the loop's mean time over the same interval, relative to
``NOMINAL_S``, gives the wall time at the reference speed::

    corrected = wall * NOMINAL_S / mean(loop seconds during the interval)

The time the loop itself takes is kept (``spent_s``) so that it can be
taken out of an operation's wall time.

The reference loop runs no code of the program under test, so a change
to the program moves the corrected time by as much as it moves the raw
one; only the host's speed is divided out.  Raw wall times are printed
beside the corrected ones.

The service workload runs its client, ``repro serve`` and the workers on
one vCPU, and part of a job's latency is waiting that does not scale
with the processor's speed.  There ``start_thread()`` samples from a
thread of the client, and ``run.py`` divides only the processor time
the processes used by the slowness, leaving the waiting as measured.
"""

from __future__ import annotations

import random
import signal
import threading
import time
from typing import List, Optional, Sequence, Tuple

#: processor seconds between samples
PERIOD_S = 0.01
#: reference loop iterations per sample (about 0.1 ms in the fast state,
#: 0.2 ms in the slow one)
LOOP_ITERATIONS = 250
#: the loop time the corrected figures are scaled to: about the slow
#: state of the 2-vCPU Xeon microVM the bounds were tuned on, so
#: corrected times read close to that machine's usual raw ones
NOMINAL_S = 0.0002


class _Node:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def step(self, x: int) -> int:
        return (self.a * x + self.b) & 255


#: the loop walks these in a shuffled order, so it reads about 1 MiB of
#: scattered objects like the simulator does; with a few cache-resident
#: objects it was slowed more by the slow state than the simulator was
_NODE_COUNT = 16384
_NODES = [_Node(i & 255, (3 * i + 1) & 255) for i in range(_NODE_COUNT)]
random.Random(0).shuffle(_NODES)
_COUNTS = dict.fromkeys(range(256), 0)
_cursor = 0


def reference_loop(n: int = LOOP_ITERATIONS) -> int:
    """Attribute reads, method calls, dict updates and small-integer
    arithmetic over scattered objects: the mix of a pure-Python
    simulator, allocating nothing."""
    global _cursor
    nodes, counts, total, mask = _NODES, _COUNTS, 0, _NODE_COUNT - 1
    start = _cursor
    _cursor = (start + n) & mask
    for i in range(start, start + n):
        v = nodes[i & mask].step(i)
        counts[v] = (counts[v] + 1) & 255
        total += v
    return total


class SpeedSampler:
    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        #: wall seconds spent inside the timer handler
        self.spent_s = 0.0
        self._previous_handler = None
        self._thread: Optional[threading.Thread] = None

    def sample(self) -> None:
        wall0 = time.perf_counter()
        cpu0 = time.thread_time()
        reference_loop()
        cpu = time.thread_time() - cpu0
        self.samples.append((time.monotonic(), cpu))
        self.spent_s += time.perf_counter() - wall0

    def start(self) -> None:
        self._previous_handler = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def _on_timer(self, signum, frame) -> None:
        self.sample()

    def start_thread(self) -> None:
        """Sample every ``PERIOD_S`` of wall time from a thread instead:
        for a process that mostly waits while the work runs in other
        processes on its vCPU."""
        self._stopping = threading.Event()
        self._thread = threading.Thread(target=self._sample_until_stopped, daemon=True)
        self._thread.start()

    def _sample_until_stopped(self) -> None:
        while not self._stopping.wait(PERIOD_S):
            self.sample()

    def stop(self) -> None:
        if self._thread is not None:
            self._stopping.set()
            self._thread.join()
            self._thread = None
        if self._previous_handler is not None:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, self._previous_handler)
            self._previous_handler = None

    # -- reading ---------------------------------------------------------
    def slowness(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Mean loop time over samples taken in ``[start, end]`` (monotonic
        seconds) relative to ``NOMINAL_S``; above 1 means slower than the
        reference.  With no sample in the interval, the nearest sample
        after it (or the last one) stands in."""
        inside = [cpu for t, cpu in self.samples if start <= t <= end]
        if not inside:
            later = [cpu for t, cpu in self.samples if t > end]
            inside = later[:1] or [cpu for _, cpu in self.samples[-1:]]
        if not inside:
            raise RuntimeError("no speed samples were taken")
        return sum(inside) / len(inside) / NOMINAL_S

    def corrected(self, walls: Sequence[Tuple[float, float, float]]) -> List[float]:
        """Each ``(start, end, net wall seconds)`` at the reference speed."""
        return [net / self.slowness(start, end) for start, end, net in walls]

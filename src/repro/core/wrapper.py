"""The bus wrapper (Fig 1 / Fig 2): the paper's central hardware block.

A :class:`Wrapper` sits between one coherent processor's cache
controller and the shared bus.  It is the *only* place heterogeneity is
handled; the native cache FSMs are untouched.  Three duties:

1. **Snoop-path conversion** — per its :class:`WrapperPolicy`, present
   snooped read transactions to the native controller as writes (the
   Intel486 realisation asserts the INV pin on read snoop cycles), so
   the controller invalidates instead of downgrading to S/O.
2. **Shared-signal forcing** — on the processor's own fills, force the
   sampled shared signal per policy (NEVER kills I->S, ALWAYS kills
   I->E).
3. **Snoop-push scheduling** — when the native FSM demands a drain
   (dirty snoop hit), answer ARTRY and queue the push.  The push runs at
   DRAIN bus priority but must wait for the cache port, which the
   processor's own in-flight (possibly backed-off) transaction holds —
   the paper's "retries the transaction instead of draining" behaviour
   that underlies the Fig 4 hardware deadlock.

Duties 1 and 2 are the coherence step of :mod:`repro.core.coherence`,
which the controller executes under this wrapper's policy; the wrapper
turns the step's outcome into the bus reply and runs duty 3.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from ..bus.asb import AsbBus, Snooper
from ..bus.types import SnoopAction, SnoopReply, Transaction
from ..cache.controller import CacheController
from ..cache.line import State
from ..errors import IntegrationError
from ..sim import Event, Simulator
from .reduction import WrapperPolicy

__all__ = ["Wrapper"]


class Wrapper(Snooper):
    """Protocol-conversion wrapper around one coherent cache controller."""

    # A snoop on a line the array does not hold is a MISS: reply OK,
    # no state change, no drain — so the bus may skip it.
    presence_filtered = True

    def __init__(
        self,
        sim: Simulator,
        controller: CacheController,
        policy: WrapperPolicy,
        bus: AsbBus,
    ):
        if not controller.coherent:
            raise IntegrationError(
                f"{controller.name}: a Wrapper needs a coherent controller; "
                "use SnoopLogic for processors without coherence hardware"
            )
        self.sim = sim
        self.controller = controller
        self.policy = policy
        self.bus = bus
        self.master_name = controller.name
        self._drain_queue: Deque[Tuple[int, State, Event]] = deque()
        self._drain_wakeup: Optional[Event] = None
        self._worker = sim.process(
            self._drain_worker(), name=f"{self.master_name}.wrapper", daemon=True
        )
        bus.attach_snooper(self)

    @property
    def policy(self) -> WrapperPolicy:
        """The conversion policy; the controller executes it on both paths."""
        return self.controller.policy

    @policy.setter
    def policy(self, policy: WrapperPolicy) -> None:
        self.controller.policy = policy

    # -- snoop path -----------------------------------------------------------
    def snoop(self, txn: Transaction) -> SnoopReply:
        outcome, data = self.controller.snoop_decision(txn)
        action = outcome.action
        if action is SnoopAction.RETRY:
            completion = self.sim.event()
            self._drain_queue.append((txn.addr, outcome.next_state, completion))
            self._kick_worker()
            return SnoopReply(action, completion=completion)
        if action is SnoopAction.SUPPLY:
            return SnoopReply(action, supply_data=data)
        return SnoopReply.OK if action is SnoopAction.OK else SnoopReply(action)

    # -- drain worker --------------------------------------------------------
    def _kick_worker(self) -> None:
        if self._drain_wakeup is not None and not self._drain_wakeup.triggered:
            wakeup, self._drain_wakeup = self._drain_wakeup, None
            wakeup.succeed()

    def _drain_worker(self):
        while True:
            if not self._drain_queue:
                self._drain_wakeup = self.sim.event()
                yield self._drain_wakeup
                continue
            addr, next_state, completion = self._drain_queue.popleft()
            # drain_line acquires the cache port: if the processor's own
            # transaction is in flight (e.g. backed off on ARTRY), the
            # push waits — deliberately, per Section 3.
            yield from self.controller.drain_line(addr, next_state)
            completion.succeed()

    @property
    def pending_drains(self) -> int:
        """Snoop pushes queued but not yet completed."""
        return len(self._drain_queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Wrapper {self.master_name} policy={self.policy}>"

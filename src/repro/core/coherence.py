"""The coherence step: one bus operation through one wrapped native FSM.

The Section 2 wrapper changes only the *inputs* of each native cache
FSM: it presents snooped reads to the controller as writes, forces the
shared signal a fill samples, and makes a dirty snoop hit drain before
the data phase.  This module is the single definition of that rule and
of how one address phase combines the snoopers' replies.  The exact
bus and cache controller, the batch engine and the model checker all
execute it, so they agree by construction:

* :func:`step_for` -- the :class:`CoherenceStep` of one protocol behind
  one :class:`~repro.core.reduction.WrapperPolicy`, built once and
  memoised on the (protocol, policy) pair.  Its ``table`` maps
  ``bus op -> line state -> Outcome`` with read->write conversion and
  the supply-legality guard folded in; :meth:`CoherenceStep.fill`
  gives a fill's state after shared-signal forcing.
* :func:`resolve_window` -- one address phase: ARTRY if any snooper
  drains, SHARED is the wired-OR (a supplier counts), and the data
  comes from the first supplier.  It reads only the reply actions, so
  it is defined beside them in :mod:`repro.bus.types` (the bus needs
  it without importing ``core/``) and re-exported here.

Pure tables and functions: nothing here touches the simulator.
"""

from __future__ import annotations

from contextlib import suppress
from itertools import product
from typing import Dict

from ..bus.types import BusOp, SnoopAction, resolve_window
from ..cache.line import State
from ..cache.protocols.base import CoherenceProtocol, SnoopOp
from ..errors import IntegrationError, ProtocolError
from .reduction import SharedMode, WrapperPolicy

__all__ = ["SNOOP_OP", "Outcome", "MISS", "CoherenceStep", "step_for", "resolve_window"]

#: how a snooping controller sees each bus operation (before conversion)
SNOOP_OP = {
    BusOp.READ: SnoopOp.READ,
    BusOp.READ_LINE: SnoopOp.READ,
    BusOp.READ_LINE_EXCL: SnoopOp.READ_EXCL,
    BusOp.WRITE: SnoopOp.WRITE,
    BusOp.WRITE_LINE: SnoopOp.WRITE,
    BusOp.SWAP: SnoopOp.WRITE,
    BusOp.INVALIDATE: SnoopOp.INVALIDATE,
    BusOp.UPDATE: SnoopOp.UPDATE,
}

class Outcome:
    """One snooper's reply to one bus operation, and the line's next state.

    ``action`` is what the snooper answers at the address phase.  On
    RETRY the line is dirty: it enters ``next_state`` only when its
    push commits.  Otherwise the snooper commits ``next_state`` at
    once.  ``apply_update`` patches the broadcast word of an UPDATE
    into the copy (update-based protocols).
    """

    __slots__ = ("action", "next_state", "apply_update")

    def __init__(self, action: SnoopAction, next_state: State, apply_update: bool = False):
        self.action = action
        self.next_state = next_state
        self.apply_update = apply_update

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Outcome {self.action.value} -> {self.next_state}>"


#: the reply of a cache that does not hold the line
MISS = Outcome(SnoopAction.OK, State.INVALID)


class CoherenceStep:
    """One protocol FSM behind one wrapper policy, as transition tables.

    ``table[bus_op][state]`` holds every legal snoop :class:`Outcome`.
    Illegal ones (a state foreign to the protocol, a supply the policy
    forbids) are left out, so :meth:`outcome` raises them on lookup.
    Hot loops probe ``table`` directly and fall back to :meth:`outcome`
    on a miss.
    """

    __slots__ = ("protocol", "policy", "table")

    def __init__(self, protocol: CoherenceProtocol, policy: WrapperPolicy):
        self.protocol = protocol
        self.policy = policy
        self.table: Dict[BusOp, Dict[State, Outcome]] = {op: {} for op in SNOOP_OP}
        for op, state in product(SNOOP_OP, protocol.states):
            with suppress(ProtocolError, IntegrationError):
                self.table[op][state] = self._evaluate(op, state, protocol.name)

    def outcome(self, op: BusOp, state: State, snooper: str) -> Outcome:
        """How ``snooper``'s line in ``state`` answers a snooped ``op``.

        ``snooper`` names the cache in the error an illegal outcome
        raises; the tables are shared by every cache of the protocol.
        """
        return self.table[op].get(state) or self._evaluate(op, state, snooper)

    def _evaluate(self, op: BusOp, state: State, snooper: str) -> Outcome:
        snoop_op = SNOOP_OP[op]
        if self.policy.convert_read_to_write and snoop_op in (
            SnoopOp.READ,
            SnoopOp.READ_EXCL,
        ):
            # Fig 1: the snooping cache is told this is a write; the
            # memory controller still sees the true operation.  RWITM
            # converts too: a policy that forbids cache-to-cache supply
            # must see a dirty hit drain to memory, never intervene.
            snoop_op = SnoopOp.WRITE
        out = self.protocol.snoop(state, snoop_op)
        if out.drain:
            action = SnoopAction.RETRY
        elif out.supply:
            if not self.policy.allow_supply:
                raise IntegrationError(
                    f"{snooper}: {self.protocol.name} attempted cache-to-cache "
                    f"supply from {state} but the wrapper policy forbids it "
                    "(reduction bug)"
                )
            action = SnoopAction.SUPPLY
        elif out.assert_shared:
            action = SnoopAction.SHARED
        else:
            action = SnoopAction.OK
        return Outcome(action, out.next_state, out.apply_update and op is BusOp.UPDATE)

    def shared(self, actual: bool) -> bool:
        """The shared signal the native FSM samples, after forcing."""
        mode = self.policy.shared_mode
        return actual if mode is SharedMode.NATIVE else mode is SharedMode.ALWAYS

    def fill(self, exclusive: bool, actual: bool) -> State:
        """State of a fresh fill, given the bus's actual shared signal."""
        return self.protocol.fill_state(exclusive, self.shared(actual))


#: one step per protocol class and distinct policy, so the memo stays
#: small however many platforms a process builds
_STEPS: Dict[tuple, CoherenceStep] = {}


def step_for(protocol: CoherenceProtocol, policy: WrapperPolicy) -> CoherenceStep:
    """The step of ``protocol`` behind ``policy``, built once.

    Keyed on the protocol class and the frozen policy: protocol FSMs
    are stateless, and reassigning a wrapper's policy selects another
    step on the next lookup.
    """
    key = (type(protocol), policy)
    step = _STEPS.get(key)
    if step is None:
        step = _STEPS[key] = CoherenceStep(protocol, policy)
    return step

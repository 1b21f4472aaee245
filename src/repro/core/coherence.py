"""The coherence step: one bus operation through one wrapped native FSM.

The Section 2 wrapper changes only the *inputs* of each native cache
FSM: it presents snooped reads to the controller as writes, forces the
shared signal a fill samples, and makes a dirty snoop hit drain before
the data phase.  This module is the single definition of that rule and
of how one address phase combines the snoopers' replies.  The exact
bus and cache controller, the batch engine and the model checker all
execute it, so they agree by construction:

* :func:`step_for` -- the :class:`CoherenceStep` of one protocol behind
  one :class:`~repro.core.reduction.WrapperPolicy`, memoised on the
  (protocol, policy) pair.  Its eager snoop, write-hit and fill tables
  are the only place a protocol FSM runs.
* :func:`snoop_step` -- one snooper's part of an address phase; the
  controller's snoop decision and :func:`run_window` both run it.
* :func:`run_window` -- the untimed ARTRY window of the batch engine
  and the model checker.  The exact bus runs the same steps across
  simulated time in its tenure loop.
* :func:`resolve_window` -- one address phase: ARTRY if any snooper
  drains, SHARED is the wired-OR (a supplier counts), and the data
  comes from the first supplier.  It reads only the reply actions, so
  it is defined beside them in :mod:`repro.bus.types` (the bus needs
  it without importing ``core/``) and re-exported here.

Pure tables and functions: nothing here touches the simulator.
"""

from __future__ import annotations

from contextlib import suppress
from enum import Enum
from itertools import product
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from ..bus.types import BusOp, SnoopAction, resolve_window
from ..cache.line import State
from ..cache.protocols.base import CoherenceProtocol, SnoopOp, WriteAction
from ..errors import IntegrationError, ProtocolError
from .reduction import SharedMode, WrapperPolicy

__all__ = [
    "SNOOP_OP", "Outcome", "MISS", "WriteMiss", "CoherenceStep", "step_for",
    "snoop_step", "run_window", "resolve_window",
]

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

class Outcome(NamedTuple):
    """One snooper's reply to one bus operation, and the line's next state.

    ``action`` is what the snooper answers at the address phase.  On
    RETRY the line is dirty: it enters ``next_state`` only when its
    push commits.  Otherwise the snooper commits ``next_state`` at
    once.  ``apply_update`` patches the broadcast word of an UPDATE
    into the copy (update-based protocols).
    """

    action: SnoopAction
    next_state: State
    apply_update: bool = False


_READS = (SnoopOp.READ, SnoopOp.READ_EXCL)

#: the reply of a cache that does not hold the line
MISS = Outcome(SnoopAction.OK, State.INVALID)


class WriteMiss(Enum):
    """How a protocol serves a write miss."""

    NO_ALLOCATE = "no-allocate"  # write-through: the word goes to memory
    FILL_SHARED = "fill-shared"  # update protocols: fill, then write hit
    RWITM = "rwitm"              # read with intent to modify, then write


class CoherenceStep:
    """One protocol FSM behind one wrapper policy, as transition tables.

    ``table[bus_op][state]`` holds every legal snoop :class:`Outcome`
    (read->write conversion and the supply guard folded in),
    ``write_hit[state]`` every legal ``(next_state, WriteAction)`` and
    ``fill[exclusive, actual_shared]`` every legal fill state after
    shared-signal forcing; ``write_miss`` is the protocol's
    :class:`WriteMiss`.  Illegal entries are left out, so the fallbacks
    :meth:`outcome`, :meth:`write_hit_for` and :meth:`fill_for` raise
    the FSM's own error.  Hot loops probe the tables directly.
    """

    __slots__ = ("protocol", "policy", "table", "write_hit", "fill", "write_miss")

    def __init__(self, protocol: CoherenceProtocol, policy: WrapperPolicy):
        self.protocol = protocol
        self.policy = policy
        self.table: Dict[BusOp, Dict[State, Outcome]] = {op: {} for op in SNOOP_OP}
        self.write_hit: Dict[State, Tuple[State, WriteAction]] = {}
        self.fill: Dict[Tuple[bool, bool], State] = {}
        for op, state in product(SNOOP_OP, protocol.states):
            with suppress(ProtocolError, IntegrationError):
                self.table[op][state] = self._evaluate(op, state, protocol.name)
        for state in protocol.states:
            with suppress(ProtocolError):
                self.write_hit[state] = protocol.write_hit(state)
        for exclusive, actual in product((False, True), repeat=2):
            with suppress(ProtocolError):
                self.fill[exclusive, actual] = protocol.fill_state(
                    exclusive, self.shared(actual)
                )
        self.write_miss = (
            WriteMiss.NO_ALLOCATE if State.MODIFIED not in protocol.states
            else WriteMiss.FILL_SHARED if getattr(protocol, "update_based", False)
            else WriteMiss.RWITM
        )

    def outcome(self, op: BusOp, state: State, snooper: str) -> Outcome:
        """How ``snooper``'s line in ``state`` answers a snooped ``op``.

        ``snooper`` names the cache in the error an illegal outcome
        raises; the tables are shared by every cache of the protocol.
        """
        return self.table[op].get(state) or self._evaluate(op, state, snooper)

    def write_hit_for(self, state: State) -> Tuple[State, WriteAction]:
        """A write hit's ``(next_state, WriteAction)`` from ``state``."""
        return self.write_hit.get(state) or self.protocol.write_hit(state)

    def fill_for(self, exclusive: bool, actual: bool) -> State:
        """State of a fresh fill, given the bus's actual shared signal."""
        return self.fill.get((exclusive, actual)) or self.protocol.fill_state(
            exclusive, self.shared(actual)
        )

    def _evaluate(self, op: BusOp, state: State, snooper: str) -> Outcome:
        snoop_op = SNOOP_OP[op]
        if self.policy.convert_read_to_write and snoop_op in _READS:
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


# -- the untimed window ---------------------------------------------------
_RETRY = SnoopAction.RETRY


def snoop_step(view: tuple, op: BusOp, addr: int, value, commit: Callable) -> Outcome:
    """One snooper's part of an address phase.

    ``view`` is ``(who, step, state, data, name)``: the caller's handle,
    the line's step and state, its word list (None where no data is
    modelled) and the cache's name for errors.  Looks up the outcome,
    patches an UPDATE's ``value`` into the word at ``addr``, and commits
    through ``commit(who, next_state)`` unless the outcome is RETRY: a
    drainer enters its next state only when its push commits.
    """
    who, step, state, data, name = view
    out = step.table[op].get(state) or step.outcome(op, state, name)
    if out.apply_update:
        data[(addr >> 2) % len(data)] = value
    if out.action is not _RETRY:
        commit(who, out.next_state)
    return out


def run_window(
    op: BusOp, addr: int, value, actor, holders: Callable, commit: Callable, drain: Callable
) -> Tuple[bool, Optional[tuple], bool]:
    """Run one bus operation's snoop window to completion, untimed.

    ``holders(addr, actor)`` lists the views (see :func:`snoop_step`)
    of the snoopers that may hold the line, in snoop order.  On ARTRY
    each retrier drains through ``drain(who, next_state)`` and the
    window re-runs once; one re-run suffices for a sound FSM, so a
    second ARTRY raises :class:`~repro.errors.ProtocolError` rather
    than spinning.  Returns ``(shared, supplier view or None, retried)``.
    """
    views = holders(addr, actor)
    if not views:
        return False, None, False
    retried = False
    while True:
        window = [(view, snoop_step(view, op, addr, value, commit)) for view in views]
        retriers, shared, supplier = resolve_window(window)
        if not retriers:
            return shared, None if supplier is None else supplier[0], retried
        if retried:
            _who, step, state, _data, name = retriers[0][0]
            raise ProtocolError(
                f"{name}: {step.protocol.name} demanded a second drain "
                f"from {state} on {op.value}"
            )
        retried = True
        for view, out in retriers:
            drain(view[0], out.next_state)
        views = holders(addr, actor)

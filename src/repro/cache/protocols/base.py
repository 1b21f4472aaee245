"""Coherence-protocol state machines: the common interface.

A protocol answers three questions, all as pure functions of the current
line state (which makes the FSMs directly unit- and property-testable):

1. What state does a newly fetched line enter?  (:meth:`fill_state` —
   depends on whether the fetch was exclusive/RWITM and on the sampled
   shared signal.)
2. What happens on a processor-side write hit?  (:meth:`write_hit` —
   silent upgrade, bus upgrade, or write-through.)
3. How does a snooped bus transaction change the line?  (:meth:`snoop` —
   possibly demanding a drain first, supplying data cache-to-cache, or
   asserting the shared signal.)

The wrapper of Section 2 never edits these machines; it manipulates their
*inputs* (converting snooped reads to writes, forcing the shared signal),
which is exactly how the paper removes states from the integrated system.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import FrozenSet, Tuple

from ...errors import ProtocolError
from ..line import State

__all__ = ["SnoopOp", "WriteAction", "SnoopOutcome", "CoherenceProtocol"]


class SnoopOp(Enum):
    """Bus operations as seen by a snooping cache controller."""

    READ = "read"
    READ_EXCL = "read-excl"
    WRITE = "write"
    INVALIDATE = "invalidate"
    UPDATE = "update"


class WriteAction(Enum):
    """What a processor-side write hit requires beyond the state change."""

    NONE = "none"              # silent (already M, or E -> M)
    UPGRADE = "upgrade"        # address-only bus invalidate (S/O -> M)
    WRITE_THROUGH = "write-through"  # single-word bus write (WT lines)
    UPDATE = "update"          # word broadcast to sharers (Dragon)


@dataclass(frozen=True)
class SnoopOutcome:
    """Result of snooping one bus operation against one line state.

    ``drain``
        The line is dirty and must be written back before the snooped
        transaction can complete: the snooper answers ARTRY and pushes
        the line, after which the line enters ``next_state``.
    ``supply``
        The snooper sources the line cache-to-cache (MOESI intervention);
        the transaction completes without a memory read.
    ``assert_shared``
        The snooper keeps a copy and drives the shared signal.
    ``apply_update``
        The snooper patches the broadcast word into its copy (update-
        based protocols only).
    """

    next_state: State
    drain: bool = False
    supply: bool = False
    assert_shared: bool = False
    apply_update: bool = False


_MISS = SnoopOutcome(State.INVALID)


class CoherenceProtocol:
    """Base class for the invalidation-protocol FSMs."""

    #: protocol name, e.g. "MESI"
    name: str = "?"
    #: the states this protocol can ever place a line in
    states: FrozenSet[State] = frozenset()
    #: whether the protocol samples a shared signal on fills
    uses_shared_signal: bool = False
    #: whether dirty lines may be supplied cache-to-cache
    supports_supply: bool = False

    # -- processor side ----------------------------------------------------
    def fill_state(self, exclusive: bool, shared: bool) -> State:
        """State for a newly fetched line.

        ``exclusive`` is True for read-with-intent-to-modify fetches;
        ``shared`` is the sampled shared signal (ignored by protocols
        without one).
        """
        raise NotImplementedError

    def write_hit(self, state: State) -> Tuple[State, WriteAction]:
        """State and required bus action for a processor write hit."""
        raise NotImplementedError

    # -- snoop side -----------------------------------------------------------
    def snoop(self, state: State, op: SnoopOp) -> SnoopOutcome:
        """Reaction of a line in ``state`` to a snooped ``op``."""
        raise NotImplementedError

    # -- helpers -----------------------------------------------------------------
    def _check(self, state: State) -> None:
        if state is not State.INVALID and state not in self.states:
            raise ProtocolError(f"{self.name} line in foreign state {state}")

    def _snoop_invalid(self) -> SnoopOutcome:
        return _MISS

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.name} protocol>"

    def __str__(self) -> str:
        return self.name

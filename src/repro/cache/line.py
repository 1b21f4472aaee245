"""Cache line states and the line storage record."""

from __future__ import annotations

from enum import Enum
from typing import Any, List

__all__ = ["State", "CacheLine"]


class State(Enum):
    """The five invalidation-protocol states (superset across protocols).

    Individual protocols use a subset: MEI has {M,E,I}, MSI {M,S,I},
    MESI {M,E,S,I}, MOESI all five, and the Intel486's write-through
    lines use {S,I}.
    """

    MODIFIED = "M"
    OWNED = "O"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"

    @property
    def is_valid(self) -> bool:
        """True for any state other than INVALID."""
        return self is not State.INVALID

    @property
    def is_dirty(self) -> bool:
        """True when this copy differs from memory (M or O)."""
        return self in (State.MODIFIED, State.OWNED)

    def __str__(self) -> str:
        return self.value


class CacheLine:
    """One allocated line: tag, coherence state, data, bookkeeping.

    ``protocol`` records which FSM governs the line — the Intel486
    allocates write-through lines under the SI protocol and write-back
    lines under its MESI-derived protocol, so one cache can mix FSMs.
    """

    __slots__ = ("tag", "state", "data", "protocol", "lru_stamp")

    def __init__(self, tag: int, state: State, data: List[int], protocol: Any, lru_stamp: int = 0):
        self.tag = tag
        self.state = state
        self.data = data
        self.protocol = protocol
        self.lru_stamp = lru_stamp

    @property
    def is_valid(self) -> bool:
        """True when the line holds a usable copy."""
        return self.state.is_valid

    @property
    def is_dirty(self) -> bool:
        """True when eviction must write the line back."""
        return self.state.is_dirty

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Line tag=0x{self.tag:x} {self.state} {self.protocol.name if self.protocol else '-'}>"

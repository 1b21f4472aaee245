"""Bus transaction vocabulary.

The shared ASB-like bus carries five kinds of transaction:

========== ===================================================================
READ        single uncached word read
WRITE       single uncached word write
READ_LINE   burst line fill (8 words by default — Table 4's 13-cycle burst)
UPDATE      word broadcast for update-based protocols (Dragon extension);
            sharers patch their copies in place, memory is not written
READ_LINE_EXCL  burst fill with intent to modify (RWITM / BusRdX)
WRITE_LINE  burst write-back of a dirty line
INVALIDATE  address-only upgrade (S -> M without a data transfer)
SWAP        atomic read-modify-write of one uncached word (lock primitive)
========== ===================================================================

Snoopers answer each address phase with a :class:`SnoopReply`:

* ``OK`` — no involvement (possibly after invalidating their copy),
* ``SHARED`` — they retain a copy; the shared signal is asserted,
* ``SUPPLY`` — they will source the data cache-to-cache (MOESI owner),
* ``RETRY`` — the master must back off (ARTRY) until ``completion``
  triggers; the snooper drains its dirty copy in the meantime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, IntEnum
from functools import lru_cache
from typing import Any, List, Optional, Sequence, Tuple, Union

from ..errors import BusError

__all__ = [
    "BusOp",
    "OP_STAT_KEYS",
    "master_stat_key",
    "busy_stat_key",
    "Priority",
    "Transaction",
    "SnoopAction",
    "SnoopReply",
    "resolve_window",
    "BusResult",
]


class BusOp(Enum):
    """The transaction kinds carried by the shared bus."""

    READ = "read"
    WRITE = "write"
    READ_LINE = "read-line"
    READ_LINE_EXCL = "read-line-excl"
    WRITE_LINE = "write-line"
    INVALIDATE = "invalidate"
    SWAP = "swap"
    UPDATE = "update"

    @property
    def is_burst(self) -> bool:
        """True for line-granular (burst) transactions."""
        return self in (BusOp.READ_LINE, BusOp.READ_LINE_EXCL, BusOp.WRITE_LINE)

    @property
    def is_read(self) -> bool:
        """True when the master receives data."""
        return self in (BusOp.READ, BusOp.READ_LINE, BusOp.READ_LINE_EXCL, BusOp.SWAP)

    @property
    def writes_memory(self) -> bool:
        """True when the transaction updates main memory."""
        return self in (BusOp.WRITE, BusOp.WRITE_LINE, BusOp.SWAP)


#: the per-operation bus counter, interned once (bumped once per tenure)
OP_STAT_KEYS = {op: "bus.op." + op.value for op in BusOp}


@lru_cache(maxsize=256)
def master_stat_key(master: str) -> str:
    """The per-master bus counter, ``bus.master.<name>``, interned."""
    return "bus.master." + master


@lru_cache(maxsize=256)
def busy_stat_key(master: str) -> str:
    """The per-master bus occupancy counter, ``bus.busy.<name>``, interned."""
    return "bus.busy." + master


class Priority(IntEnum):
    """Arbitration levels; numerically lower wins.

    ``DRAIN`` models the paper's snoop-push path: after ARTRY the arbiter
    immediately hands the bus to the snooping processor (BOFF/ARTRY
    handshake), so drains beat everything.  ``RETRY`` puts backed-off
    masters ahead of fresh requests, bounding retry starvation.
    """

    DRAIN = 0
    RETRY = 1
    NORMAL = 2


@dataclass(slots=True)
class Transaction:
    """One bus transaction as issued by a master.

    ``data`` is a single word for WRITE/SWAP and a word list for
    WRITE_LINE.  ``line_words`` matters only for burst ops.
    """

    op: BusOp
    addr: int
    master: str
    data: Union[int, Sequence[int], None] = None
    line_words: int = 8
    retries: int = 0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.addr < 0 or self.addr % 4:
            raise BusError(f"bad transaction address 0x{self.addr:x}")
        if self.op is BusOp.WRITE_LINE:
            if self.data is None or len(list(self.data)) != self.line_words:
                raise BusError("WRITE_LINE needs exactly line_words data words")
        if self.op in (BusOp.WRITE, BusOp.SWAP, BusOp.UPDATE) and not isinstance(self.data, int):
            raise BusError(f"{self.op.value} needs a single data word")
        if self.op.is_burst and self.addr % (4 * self.line_words):
            raise BusError(
                f"burst address 0x{self.addr:08x} not aligned to "
                f"{4 * self.line_words}-byte line"
            )

    def describe(self) -> str:
        """Short human-readable rendering for traces."""
        return f"{self.master}:{self.op.value}@0x{self.addr:08x}"


class SnoopAction(Enum):
    """What a snooper decided at the address phase."""

    OK = "ok"
    SHARED = "shared"
    SUPPLY = "supply"
    RETRY = "retry"


@dataclass(frozen=True, slots=True)
class SnoopReply:
    """A snooper's answer to one address phase.

    ``completion`` (RETRY only) triggers once the snooper has drained the
    offending line and the master may retry.  ``supply_data`` (SUPPLY
    only) carries the line sourced cache-to-cache.
    """

    action: SnoopAction
    completion: Any = None
    supply_data: Optional[List[int]] = None

    def __post_init__(self):
        if self.action is SnoopAction.RETRY and self.completion is None:
            raise BusError("RETRY snoop reply needs a completion event")
        if self.action is SnoopAction.SUPPLY and self.supply_data is None:
            raise BusError("SUPPLY snoop reply needs data")


# Singleton "no involvement" reply shared by every snooper.
SnoopReply.OK = SnoopReply(SnoopAction.OK)  # type: ignore[attr-defined]

# Enum member access goes through EnumType's attribute hook; bind once.
_RETRY, _SUPPLY, _SHARED = SnoopAction.RETRY, SnoopAction.SUPPLY, SnoopAction.SHARED


def resolve_window(window: Sequence[tuple]) -> Tuple[List[tuple], bool, Optional[tuple]]:
    """Combine one address phase into ``(retriers, shared, supplier)``.

    ``window`` holds ``(responder, reply)`` pairs in snoop order.  Only
    ``reply.action`` is read, so bus replies and step outcomes combine
    alike.  Any RETRY pair aborts the tenure (ARTRY) and ``retriers``
    lists them all.  Otherwise SHARED is the wired-OR of every SHARED
    or SUPPLY reply, and ``supplier`` is the first SUPPLY pair (None
    when memory supplies the data).  One plain loop: the batch engine
    resolves a window per bus operation.
    """
    retriers = []
    shared = False
    supplier = None
    for pair in window:
        action = pair[1].action
        if action is _RETRY:
            retriers.append(pair)
        elif action is _SUPPLY:
            shared = True
            if supplier is None:
                supplier = pair
        elif action is _SHARED:
            shared = True
    return retriers, shared, supplier


@dataclass(frozen=True, slots=True)
class BusResult:
    """Outcome of a completed transaction, as seen by the master."""

    data: Union[int, List[int], None]
    shared: bool
    retries: int
    start_time: int
    end_time: int
    supplied: bool = False

    @property
    def latency(self) -> int:
        """Ticks between issue and completion, including retries."""
        return self.end_time - self.start_time

"""Structured tracing and statistics for simulation runs.

A :class:`Tracer` is attached to a platform and receives one
:class:`TraceRecord` per interesting hardware event (bus transaction,
cache state change, interrupt, lock operation...).  Tracing is off by
default; benchmarks leave it off, tests and the coherence checker turn
on the channels they need.

Components emit through a cached :class:`TraceChannel` guard object,
asked for once, and test it before every emit — building the keyword
dict for a record that is then dropped costs more than many of the
modelled operations themselves::

    self._trace_bus = tracer.channel("bus")
    ...
    trace = self._trace_bus
    if trace.enabled:
        trace.emit(now, source, kind, addr=addr)

When the channel is disabled and no listeners are attached, the cost is
two attribute loads and a branch — no dict, no record, no call.  The
tracer keeps every handed-out channel's ``enabled`` flag current when
channels are enabled or listeners attached.

:class:`Stats` is a plain counter bag used for the headline metrics
(bus cycles busy, misses, interrupts, retries) that the analysis layer
reads after a run.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Iterable, Optional

__all__ = ["TraceRecord", "TraceChannel", "Tracer", "Stats", "NullTracer"]


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One timestamped simulation event.

    ``channel`` groups records ("bus", "cache", "irq", "lock", "core");
    ``source`` names the emitting component; ``kind`` is the event name;
    ``fields`` carries event-specific data (addresses, states...).
    """

    time: int
    channel: str
    source: str
    kind: str
    fields: dict[str, Any] = field(default_factory=dict)

    def format(self) -> str:
        """Render the record as a single human-readable line."""
        pairs = " ".join(f"{k}={_fmt(v)}" for k, v in self.fields.items())
        return f"[{self.time:>10}ns] {self.channel:5s} {self.source:12s} {self.kind:16s} {pairs}"


def _fmt(value: Any) -> str:
    if isinstance(value, int) and value >= 0x1000:
        return f"0x{value:08x}"
    return str(value)


class TraceChannel:
    """A cached per-channel emit guard (see :meth:`Tracer.channel`).

    ``enabled`` is a plain attribute the owning tracer keeps current:
    False exactly when an emit would be a no-op, so call sites skip the
    whole call (and its kwargs dict) with one attribute load.  ``store``
    tracks whether records on this channel are kept in the buffer (they
    may be False while ``enabled`` is True: listeners see all channels).
    """

    __slots__ = ("_tracer", "name", "enabled", "store")

    def __init__(self, tracer: "Tracer", name: str, store: bool, enabled: bool):
        self._tracer = tracer
        self.name = name
        self.store = store
        self.enabled = enabled

    def emit(self, time: int, source: str, kind: str, **fields: Any) -> None:
        """Record one event on this channel (call only when ``enabled``)."""
        tracer = self._tracer
        record = TraceRecord(time, self.name, source, kind, fields)
        for listener in tracer._listeners:
            listener(record)
        if self.store:
            tracer.records.append(record)  # deque(maxlen) evicts the oldest

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return f"<TraceChannel {self.name!r} {state}>"


# One tracer per platform; the hot path goes through the slotted
# TraceChannel guards, never through attribute lookups on this object.
class Tracer:
    """Collects :class:`TraceRecord` objects on enabled channels.

    ``records`` is a ring buffer: with a ``capacity``, the oldest record
    is dropped in O(1) once full (``deque(maxlen=...)`` — a plain list
    would shift every element on each eviction, O(n) per record for the
    whole steady state of a capped trace).
    """

    def __init__(self, channels: Optional[Iterable[str]] = None, capacity: Optional[int] = None):
        self.records: Deque[TraceRecord] = deque(maxlen=capacity)
        self._channels: Optional[set[str]] = set(channels) if channels is not None else None
        self._listeners: list[Callable[[TraceRecord], None]] = []
        self._channel_cache: Dict[str, TraceChannel] = {}

    def enable(self, channel: str) -> None:
        """Start recording ``channel`` (no-op if all channels are on)."""
        if self._channels is not None:
            self._channels.add(channel)
            self._refresh_channels()

    def add_listener(self, listener: Callable[[TraceRecord], None]) -> None:
        """Invoke ``listener(record)`` on every emitted record.

        Listeners see records on *all* channels regardless of the enabled
        set; the coherence checker uses this so benchmarks can keep record
        storage off while still being checked.
        """
        self._listeners.append(listener)
        self._refresh_channels()

    # -- channel guards ----------------------------------------------------
    def channel(self, name: str) -> TraceChannel:
        """The cached emit guard for ``name`` (one object per channel)."""
        guard = self._channel_cache.get(name)
        if guard is None:
            guard = TraceChannel(self, name, self._stores(name), self._live(name))
            self._channel_cache[name] = guard
        return guard

    def _stores(self, name: str) -> bool:
        """Whether records on ``name`` are kept in the buffer."""
        return self._channels is None or name in self._channels

    def _live(self, name: str) -> bool:
        """Whether an emit on ``name`` does any work at all."""
        return bool(self._listeners) or self._stores(name)

    def _refresh_channels(self) -> None:
        for guard in self._channel_cache.values():
            guard.store = self._stores(guard.name)
            guard.enabled = self._live(guard.name)

    def find(self, channel: Optional[str] = None, kind: Optional[str] = None) -> list[TraceRecord]:
        """Filter recorded events by channel and/or kind."""
        return [
            r
            for r in self.records
            if (channel is None or r.channel == channel)
            and (kind is None or r.kind == kind)
        ]

    def format(self) -> str:
        """The whole trace as one newline-joined string."""
        return "\n".join(r.format() for r in self.records)


class NullTracer(Tracer):
    """A tracer that records nothing, for zero-overhead benchmark runs."""

    def __init__(self):
        super().__init__(channels=())

    def _stores(self, name: str) -> bool:
        # enable() on the base class would start recording; a NullTracer
        # never stores, whatever the channel set says.
        return False


class Stats:
    """A counter bag with a tiny convenience API."""

    __slots__ = ("counters",)

    def __init__(self):
        self.counters: Counter[str] = Counter()

    def bump(self, key: str, amount: int = 1) -> None:
        """Increment ``key`` by ``amount``."""
        self.counters[key] += amount

    def get(self, key: str) -> int:
        """Current value of ``key`` (0 when never bumped)."""
        return self.counters.get(key, 0)

    def as_dict(self) -> dict[str, int]:
        """Snapshot of every counter."""
        return dict(self.counters)

    def merge(self, other: "Stats") -> None:
        """Add another stats bag into this one."""
        self.counters.update(other.counters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{k}={v}" for k, v in sorted(self.counters.items()))
        return f"Stats({body})"

"""Set-associative cache array with LRU replacement.

Pure data structure: no timing, no bus.  The controller layers protocol
behaviour and bus traffic on top.  Geometry follows the usual power-of-
two decomposition: ``addr = tag | set index | line offset``.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Tuple

from ..errors import ConfigError
from .line import CacheLine, State

__all__ = ["CacheGeometry", "CacheArray"]

#: bound once: an enum member read through its class is slow per lookup
_INVALID = State.INVALID


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


class CacheGeometry:
    """Size/line/associativity arithmetic, shared by array and TAG CAM."""

    __slots__ = (
        "size_bytes", "line_bytes", "ways", "line_words", "n_sets",
        "_offset_bits", "_index_bits",
    )

    def __init__(self, size_bytes: int, line_bytes: int = 32, ways: int = 4):
        if not _is_pow2(size_bytes) or not _is_pow2(line_bytes) or not _is_pow2(ways):
            raise ConfigError("cache size, line size and ways must be powers of two")
        if line_bytes < 4 or line_bytes % 4:
            raise ConfigError(f"line size {line_bytes} must be a multiple of 4 bytes")
        if size_bytes < line_bytes * ways:
            raise ConfigError(
                f"cache of {size_bytes}B cannot hold {ways} ways of {line_bytes}B lines"
            )
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.ways = ways
        self.line_words = line_bytes // 4
        self.n_sets = size_bytes // (line_bytes * ways)
        self._offset_bits = line_bytes.bit_length() - 1
        self._index_bits = self.n_sets.bit_length() - 1

    def line_base(self, addr: int) -> int:
        """Address of the first byte of the line containing ``addr``."""
        return addr & ~(self.line_bytes - 1)

    def set_index(self, addr: int) -> int:
        """Set index for ``addr``."""
        return (addr >> self._offset_bits) & (self.n_sets - 1)

    def tag(self, addr: int) -> int:
        """Tag bits for ``addr``."""
        return addr >> (self._offset_bits + self._index_bits)

    def word_offset(self, addr: int) -> int:
        """Index of ``addr``'s word within its line."""
        return (addr & (self.line_bytes - 1)) >> 2

    def rebuild_addr(self, tag: int, set_index: int) -> int:
        """Line base address from (tag, set index) — for victim lookup."""
        return (tag << (self._offset_bits + self._index_bits)) | (
            set_index << self._offset_bits
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CacheGeometry({self.size_bytes}B, {self.line_bytes}B lines, "
            f"{self.ways}-way, {self.n_sets} sets)"
        )


class CacheArray:
    """Tag/data storage with per-set LRU.

    Alongside the way-indexed storage (``_sets``, which models the
    physical ways and backs LRU victim selection) each set keeps a
    ``tag -> (way, line)`` dict so :meth:`lookup` is O(1) instead of a
    linear scan over the ways — the TAG-CAM-style behaviour every
    processor access and every snoop pays for.  ``install``, ``remove``
    and ``release_way`` keep the two views coherent; LRU stamping is
    unchanged.
    """

    __slots__ = ("geom", "_sets", "_index", "_clock")

    def __init__(self, geometry: CacheGeometry):
        self.geom = geometry
        self._sets: List[List[Optional[CacheLine]]] = [
            [None] * geometry.ways for _ in range(geometry.n_sets)
        ]
        self._index: List[dict[int, Tuple[int, CacheLine]]] = [
            {} for _ in range(geometry.n_sets)
        ]
        self._clock = 0

    # -- lookup ---------------------------------------------------------------
    def lookup(self, addr: int, touch: bool = False) -> Optional[CacheLine]:
        """The valid line holding ``addr``, or None.

        ``touch`` refreshes the line's LRU stamp (processor-side accesses
        touch; snoops must not disturb recency).
        """
        geom = self.geom
        entry = self._index[geom.set_index(addr)].get(geom.tag(addr))
        if entry is None:
            return None
        line = entry[1]
        if line.state is _INVALID:
            # Invalidated in place (snoop/drain race); treated as a miss
            # exactly like the way scan did.
            return None
        if touch:
            self._clock += 1
            line.lru_stamp = self._clock
        return line

    def victim_for(self, addr: int) -> Tuple[int, Optional[CacheLine], Optional[int]]:
        """Choose the way a fill of ``addr`` will occupy.

        Returns ``(way, evicted_line, evicted_addr)``; the line is None
        when the chosen way is empty/invalid.  Invalid ways are used
        first; otherwise the least-recently-used way is evicted.
        """
        set_index = self.geom.set_index(addr)
        ways = self._sets[set_index]
        for way, line in enumerate(ways):
            if line is None or line.state is _INVALID:
                return way, None, None
        way = min(range(len(ways)), key=lambda w: ways[w].lru_stamp)
        victim = ways[way]
        return way, victim, self.geom.rebuild_addr(victim.tag, set_index)

    # -- mutation --------------------------------------------------------------
    def install(self, addr: int, way: int, data: List[int], state: State, protocol) -> CacheLine:
        """Place a freshly fetched line into ``way`` of ``addr``'s set."""
        if len(data) != self.geom.line_words:
            raise ConfigError(
                f"fill of {len(data)} words into {self.geom.line_words}-word line"
            )
        assert self.lookup(addr) is None, (
            f"line 0x{self.geom.line_base(addr):08x} installed while "
            "already resident (controller bug)"
        )
        self._clock += 1
        line = CacheLine(
            tag=self.geom.tag(addr),
            state=state,
            data=list(data),
            protocol=protocol,
            lru_stamp=self._clock,
        )
        set_index = self.geom.set_index(addr)
        previous = self._sets[set_index][way]
        if previous is not None:
            # An invalid line may still occupy the way; drop its index
            # entry so the dict never outlives the storage.
            entry = self._index[set_index].get(previous.tag)
            if entry is not None and entry[0] == way:
                del self._index[set_index][previous.tag]
        self._sets[set_index][way] = line
        self._index[set_index][line.tag] = (way, line)
        return line

    def remove(self, addr: int) -> Optional[CacheLine]:
        """Invalidate and detach the line for ``addr`` (returns it)."""
        set_index = self.geom.set_index(addr)
        entry = self._index[set_index].pop(self.geom.tag(addr), None)
        if entry is None:
            return None
        way, line = entry
        self._sets[set_index][way] = None
        if line.state is _INVALID:
            # Already invalidated in place; the slot is freed but there
            # is no live line to hand back (matches the way-scan miss).
            return None
        line.state = State.INVALID
        return line

    def release_way(self, addr: int, way: int) -> None:
        """Free ``way`` of ``addr``'s set after an in-place retirement.

        Controllers invalidate a victim's state in place (so snoops keep
        seeing it until the write-back commits) and then release the
        way; this clears both the storage slot and the tag index.
        """
        set_index = self.geom.set_index(addr)
        self._sets[set_index][way] = None
        index = self._index[set_index]
        tag = self.geom.tag(addr)
        entry = index.get(tag)
        if entry is not None and entry[0] == way:
            del index[tag]

    # -- inspection --------------------------------------------------------------
    def valid_lines(self) -> Iterator[Tuple[int, CacheLine]]:
        """Yield ``(line_base_addr, line)`` for every valid line."""
        for set_index, ways in enumerate(self._sets):
            for line in ways:
                if line is not None and line.state is not _INVALID:
                    yield self.geom.rebuild_addr(line.tag, set_index), line

    def occupancy(self) -> int:
        """Number of valid lines currently held."""
        return sum(1 for _ in self.valid_lines())

    def flush_iter(self, predicate: Optional[Callable[[int], bool]] = None) -> List[int]:
        """Addresses of valid lines, optionally filtered (for flush-all)."""
        return [
            addr
            for addr, _line in self.valid_lines()
            if predicate is None or predicate(addr)
        ]

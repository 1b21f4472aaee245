"""Memory map: address regions and their attributes.

The platforms in the paper distinguish several kinds of address space:

* private, cacheable memory per processor,
* the shared-data region — cacheable or not depending on the coherence
  solution being evaluated (Table 4: "Shared data: selectively enabled"),
* the lock-variable region — **never** cached ("Lock variables are not
  cached in all simulations"), and
* memory-mapped devices (the hardware lock register, the snoop-logic
  mailbox) which are uncacheable by construction.

A :class:`MemoryMap` is a list of non-overlapping :class:`Region` objects
plus lookup helpers.  Caches consult it to decide whether an access may
allocate; write policy (write-back vs write-through) is also a region
attribute, mirroring the Intel486's per-line WB/WT configuration.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Iterable, Optional

from ..errors import ConfigError, MemoryError_

__all__ = ["WritePolicy", "Region", "MemoryMap"]


class WritePolicy(Enum):
    """Write policy applied to cache lines allocated from a region."""

    WRITE_BACK = "write-back"
    WRITE_THROUGH = "write-through"


@dataclass(frozen=True)
class Region:
    """A contiguous, attribute-uniform address range ``[base, base+size)``."""

    name: str
    base: int
    size: int
    cacheable: bool = True
    write_policy: WritePolicy = WritePolicy.WRITE_BACK
    device: Any = None
    shared: bool = False

    def __post_init__(self):
        if self.base < 0 or self.size <= 0:
            raise ConfigError(f"region {self.name!r}: bad range base=0x{self.base:x} size={self.size}")
        if self.base % 4 or self.size % 4:
            raise ConfigError(f"region {self.name!r}: base and size must be word-aligned")
        if self.device is not None and self.cacheable:
            raise ConfigError(f"region {self.name!r}: device regions must be uncacheable")

    @property
    def end(self) -> int:
        """One past the last byte of the region."""
        return self.base + self.size

    def contains(self, addr: int) -> bool:
        """True when ``addr`` falls inside this region."""
        return self.base <= addr < self.end

    def uncached(self) -> "Region":
        """A copy of this region with caching disabled."""
        return replace(self, cacheable=False)


class MemoryMap:
    """Sorted, non-overlapping set of regions with fast lookup."""

    def __init__(self, regions: Iterable[Region] = ()):
        self._regions: list[Region] = []
        self._bases: list[int] = []
        for region in regions:
            self.add(region)

    # -- construction -------------------------------------------------------
    def add(self, region: Region) -> Region:
        """Insert ``region``, rejecting overlaps and duplicate names."""
        if any(r.name == region.name for r in self._regions):
            raise ConfigError(f"duplicate region name {region.name!r}")
        index = bisect.bisect_left(self._bases, region.base)
        if index > 0 and self._regions[index - 1].end > region.base:
            raise ConfigError(
                f"region {region.name!r} overlaps {self._regions[index - 1].name!r}"
            )
        if index < len(self._regions) and region.end > self._regions[index].base:
            raise ConfigError(
                f"region {region.name!r} overlaps {self._regions[index].name!r}"
            )
        self._regions.insert(index, region)
        self._bases.insert(index, region.base)
        return region

    def replace(self, name: str, **changes: Any) -> Region:
        """Swap the named region for a copy with ``changes`` applied."""
        old = self.region(name)
        self._remove(name)
        new = replace(old, **changes)
        try:
            return self.add(new)
        except ConfigError:
            self.add(old)  # roll back so the map stays valid
            raise

    def _remove(self, name: str) -> None:
        for index, region in enumerate(self._regions):
            if region.name == name:
                del self._regions[index]
                del self._bases[index]
                return
        raise ConfigError(f"no region named {name!r}")

    # -- lookup ---------------------------------------------------------------
    @property
    def regions(self) -> tuple[Region, ...]:
        """All regions, sorted by base address."""
        return tuple(self._regions)

    def region(self, name: str) -> Region:
        """The region with the given name."""
        for region in self._regions:
            if region.name == name:
                return region
        raise ConfigError(f"no region named {name!r}")

    def find(self, addr: int) -> Region:
        """The region containing ``addr``; raises when unmapped."""
        index = bisect.bisect_right(self._bases, addr) - 1
        if index >= 0 and self._regions[index].contains(addr):
            return self._regions[index]
        raise MemoryError_(f"unmapped address 0x{addr:08x}")

    def lookup(self, addr: int) -> Optional[Region]:
        """Like :meth:`find` but returns None for unmapped addresses."""
        index = bisect.bisect_right(self._bases, addr) - 1
        if index >= 0 and self._regions[index].contains(addr):
            return self._regions[index]
        return None

    def is_cacheable(self, addr: int) -> bool:
        """True when a cache may allocate a line for ``addr``."""
        return self.find(addr).cacheable

    def device_at(self, addr: int) -> Any:
        """The device backing ``addr``, or None for plain memory."""
        return self.find(addr).device

    def __iter__(self):
        return iter(self._regions)

    def __len__(self) -> int:
        return len(self._regions)

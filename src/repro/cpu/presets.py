"""Processor presets: the three embedded processors of the case study.

Each preset is a :class:`CoreConfig` capturing what matters to the
evaluation: clock frequency, data cache geometry, the native coherence
protocol (or None for the ARM920T, which has no coherence hardware),
and interrupt/sync cost parameters.

* :func:`preset_powerpc755` — 100 MHz, 32 KB 8-way data cache, MEI.
* :func:`preset_arm920t` — 50 MHz, 16 KB 64-way CAM-organised data
  cache, no coherence support.
* :func:`preset_intel486` — Write-back Enhanced Intel486: a MESI-derived
  protocol for write-back lines plus SI for write-through lines (the
  INV-pin behaviour lives in the wrapper).  Run here at 50 MHz so its
  period is an integral number of nanoseconds.

All presets use 32-byte (8-word) lines: the platform integration layer
requires one system-wide line size (a model restriction; the paper's
processors differ, but snoop granularity must be uniform for the
single-line snoop check to be sound).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..cache.array import CacheGeometry

__all__ = ["CoreConfig", "preset_powerpc755", "preset_arm920t", "preset_intel486",
           "preset_generic"]


@dataclass(frozen=True)
class CoreConfig:
    """Everything needed to instantiate one processor on a platform."""

    name: str
    freq_mhz: float
    cache_size: int = 16 * 1024
    cache_line_bytes: int = 32
    cache_ways: int = 4
    #: native coherence protocol name, or None for no coherence hardware
    protocol: Optional[str] = "MESI"
    #: protocol for write-through regions (Intel486's SI lines)
    protocol_wt: Optional[str] = None
    cpi: int = 1
    sync_cycles: int = 3
    fiq_response_cycles: int = 2
    #: extra 0..N cycles of seeded per-assertion response jitter
    fiq_response_jitter_cycles: int = 0
    interrupt_entry_cycles: int = 4
    rfi_cycles: int = 2
    isr_drain_priority: bool = True
    cache_enabled: bool = True

    @property
    def coherent(self) -> bool:
        """True when the processor has native coherence hardware."""
        return self.protocol is not None

    def geometry(self) -> CacheGeometry:
        """The data-cache geometry this config describes."""
        return CacheGeometry(
            size_bytes=self.cache_size,
            line_bytes=self.cache_line_bytes,
            ways=self.cache_ways,
        )

    def with_(self, **changes) -> "CoreConfig":
        """A modified copy (convenience over dataclasses.replace)."""
        return replace(self, **changes)


def preset_powerpc755(name: str = "ppc755") -> CoreConfig:
    """PowerPC755: 100 MHz, 32 KB 8-way data cache, MEI protocol."""
    return CoreConfig(
        name=name,
        freq_mhz=100.0,
        cache_size=32 * 1024,
        cache_line_bytes=32,
        cache_ways=8,
        protocol="MEI",
        sync_cycles=10,         # PPC7xx sync: pipeline + bus-queue flush
    )


def preset_arm920t(name: str = "arm920t") -> CoreConfig:
    """ARM920T: 50 MHz, 16 KB 64-way data cache, no coherence hardware."""
    return CoreConfig(
        name=name,
        freq_mhz=50.0,
        cache_size=16 * 1024,
        cache_line_bytes=32,
        cache_ways=64,
        protocol=None,
        sync_cycles=6,          # CP15 drain-write-buffer stall
        fiq_response_cycles=1,  # pipeline-dependent nFIQ response
        interrupt_entry_cycles=1,  # FIQ has dedicated banked registers
        rfi_cycles=1,
    )


def preset_intel486(name: str = "i486") -> CoreConfig:
    """Write-back Enhanced Intel486: MESI write-back lines + SI WT lines."""
    return CoreConfig(
        name=name,
        freq_mhz=50.0,
        cache_size=8 * 1024,
        cache_line_bytes=32,
        cache_ways=4,
        protocol="MESI",
        protocol_wt="SI",
        sync_cycles=2,
    )


def preset_generic(
    name: str,
    protocol: Optional[str],
    freq_mhz: float = 50.0,
    cache_size: int = 16 * 1024,
) -> CoreConfig:
    """A plain processor with the given protocol — for protocol-mix studies."""
    return CoreConfig(
        name=name,
        freq_mhz=freq_mhz,
        cache_size=cache_size,
        protocol=protocol,
    )

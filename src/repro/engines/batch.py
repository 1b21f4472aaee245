"""The batch engine: trace-driven functional replay, statistics only.

Executes the *same coherence step* as the event kernel — the tables
and the untimed ARTRY window (:func:`~repro.core.coherence.run_window`)
of :mod:`repro.core.coherence`, LRU victim selection — but as a direct
functional evaluation with no event kernel at all: no generators, no
time heap, no arbitration, no tracing.  The cost per access drops from
~30 fired kernel events to a handful of dict operations, which is where
the order-of-magnitude speedup comes from (see ``docs/engines.md`` for
the full argument and its limits).

The replay is one pass over the trace.  One directory lists every
master's copy of each line base, so a hit is one probe and a snoop
window visits only the holders, in master order.  Only a miss, a swap
or a disabled cache looks up the address's region (mapped, cacheable,
write-through).  The loop is inherently sequential: every access's
outcome depends on the cache and coherence state left by the previous
one.

Faithfulness contract (enforced by ``tests/engines/test_equivalence.py``):
on any serialised trace, every counter except the timing-only
``bus.busy*`` keys matches the exact engine, as does the final
per-master line-state occupancy.  What the batch engine does *not*
model: simulated time, concurrent drivers (port contention, upgrade
races), devices, fault injection, and non-coherent masters.
"""

from __future__ import annotations

import bisect
import time
from typing import Dict, List, Optional, Sequence

from ..bus.types import OP_STAT_KEYS, BusOp, master_stat_key
from ..cache.line import State
from ..cache.protocols import make_protocol
from ..cache.protocols.base import WriteAction
from ..core.coherence import WriteMiss, run_window, step_for
from ..core.platform import PlatformConfig, build_memory_map
from ..core.reduction import WrapperPolicy, reduce_protocols
from ..errors import ConfigError, ProtocolError
from ..mem.map import WritePolicy
from .interfaces import EngineRunResult, ISimEngine

__all__ = ["BatchEngine"]

_WORD_MASK = 0xFFFF_FFFF
_DIRTY = frozenset(state for state in State if state.is_dirty)
_INVALID = State.INVALID


class _Line:
    """One resident line: the functional mirror of CacheLine, with the
    coherence step of its protocol behind its master's wrapper.

    ``pos`` names the master by its slot: a reference to the master
    would form a cycle that keeps every replay's lines alive until the
    cyclic collector runs.
    """

    __slots__ = ("base", "way", "state", "data", "step", "pos", "lru")

    def __init__(self, base, way, state, data, step, pos, lru):
        self.base = base
        self.way = way
        self.state = state
        self.data = data
        self.step = step
        self.pos = pos
        self.lru = lru


class _Master:
    """One master's cache: geometry, policy, and its ways."""

    __slots__ = (
        "name", "pos", "enabled", "step", "step_wt",
        "offset_bits", "set_mask", "sets", "clock",
        "key_hits", "key_read_misses", "key_write_misses", "key_fills",
        "key_bus_master",
    )

    def __init__(self, cfg, pos, policy):
        geom = cfg.geometry()
        self.name = cfg.name
        self.pos = pos  # this master's slot in every directory row
        self.enabled = cfg.cache_enabled
        # Write-back and write-through lines' steps (the same without a WT protocol)
        self.step = step_for(make_protocol(cfg.protocol), policy)
        self.step_wt = (
            step_for(make_protocol(cfg.protocol_wt), policy)
            if cfg.protocol_wt else self.step
        )
        self.offset_bits = geom._offset_bits
        self.set_mask = geom.n_sets - 1
        self.sets: List[List[Optional[_Line]]] = [
            [None] * geom.ways for _ in range(geom.n_sets)
        ]
        self.clock = 0
        self.key_hits = f"{cfg.name}.hits"
        self.key_read_misses = f"{cfg.name}.read_misses"
        self.key_write_misses = f"{cfg.name}.write_misses"
        self.key_fills = f"{cfg.name}.fills"
        self.key_bus_master = master_stat_key(cfg.name)


def _line_aligned_regions(config: PlatformConfig) -> list:
    """``config``'s memory-map regions sorted by base, all line-aligned.

    The replay loop skips the region lookup on a hit, which is sound
    only if no cache line straddles a region boundary, so a region
    that would let one do so is refused.
    """
    line_bytes = config.line_bytes
    regions = sorted(build_memory_map(config), key=lambda r: r.base)
    for region in regions:
        if region.base % line_bytes or region.end % line_bytes:
            raise ConfigError(
                f"region {region.name!r} [0x{region.base:08x}, "
                f"0x{region.end:08x}) is not aligned to the "
                f"{line_bytes}-byte cache line"
            )
    return regions


class _BatchModel:
    """One run's worth of functional-replay state."""

    def __init__(self, config: PlatformConfig):
        if config.faults:
            raise ConfigError("the batch engine does not model fault injection")
        if config.fabric != "atomic":
            raise ConfigError(
                "the batch engine replays the atomic snoopy bus only; "
                f"fabric {config.fabric!r} needs the exact event kernel"
            )
        if not all(cfg.coherent for cfg in config.cores):
            raise ConfigError(
                "the batch engine supports coherent masters only; "
                "non-coherent cores need the snoop-logic/interrupt "
                "machinery of the event kernel"
            )
        regions = _line_aligned_regions(config)
        self.region_bases = [r.base for r in regions]
        self.region_ends = [r.end for r in regions]
        self.region_cacheable = [r.cacheable for r in regions]
        self.region_write_through = [
            r.write_policy is WritePolicy.WRITE_THROUGH for r in regions
        ]
        self.snooping = config.hardware_coherence
        if self.snooping:
            policies = reduce_protocols(
                [cfg.protocol for cfg in config.cores]
            ).policies
        else:
            policies = [WrapperPolicy()] * len(config.cores)
        self.masters = [
            _Master(cfg, pos, policy)
            for pos, (cfg, policy) in enumerate(zip(config.cores, policies))
        ]
        # One system-wide line size (PlatformConfig validates it).
        self.line_mask = ~(config.line_bytes - 1)
        self.line_words = config.line_bytes // 4
        #: line base -> each master's line there or None, in snoop order
        self.lines: Dict[int, List[Optional[_Line]]] = {}
        self.mem: Dict[int, int] = {}
        self.stats: Dict[str, int] = {}

    # -- stats ----------------------------------------------------------
    def bump(self, key: str, amount: int = 1) -> None:
        stats = self.stats
        stats[key] = stats.get(key, 0) + amount

    # -- the bus ---------------------------------------------------------
    def txn(self, op, addr, master, data=None):
        """One bus tenure: the untimed snoop window, then the data phase.

        Returns ``(shared, data)`` — the sampled shared signal and the
        data-phase payload — mirroring the exact bus's BusResult.
        """
        stats = self.stats
        for key in ("bus.txns", OP_STAT_KEYS[op], master.key_bus_master):
            stats[key] = stats.get(key, 0) + 1
        if not self.snooping:
            return False, self._data_phase(op, addr, data)
        shared, supplier, retried = run_window(
            op, addr, data, master, self.holders, self.commit, self.drain
        )
        if retried:
            stats["bus.retries"] = stats.get("bus.retries", 0) + 1
        if supplier is not None:
            stats["bus.c2c_supplies"] = stats.get("bus.c2c_supplies", 0) + 1
            return shared, list(supplier[3])
        return shared, self._data_phase(op, addr, data)

    def holders(self, addr, master):
        """The window's views of every other master holding ``addr``'s line."""
        row = self.lines.get(addr & self.line_mask)
        if row is None:
            return ()
        return [
            (line, line.step, line.state, line.data, self.masters[line.pos].name)
            for line in row
            if line is not None and line.pos != master.pos
        ]

    def _data_phase(self, op, addr, data):
        mem = self.mem
        if op is BusOp.READ:
            return mem.get(addr, 0)
        if op is BusOp.WRITE:
            mem[addr] = data & _WORD_MASK
            return None
        if op is BusOp.SWAP:
            old = mem.get(addr, 0)
            mem[addr] = data & _WORD_MASK
            return old
        if op is BusOp.READ_LINE or op is BusOp.READ_LINE_EXCL:
            return [mem.get(addr + 4 * i, 0) for i in range(self.line_words)]
        if op is BusOp.WRITE_LINE:
            for i, value in enumerate(data):
                mem[addr + 4 * i] = value & _WORD_MASK
            return None
        # INVALIDATE / UPDATE: address-only as far as memory is concerned.
        return None

    def commit(self, line, next_state):
        """Move a resident line to ``next_state``; INVALID frees its way."""
        if next_state is _INVALID:
            m = self.masters[line.pos]
            self.lines[line.base][line.pos] = None
            m.sets[(line.base >> m.offset_bits) & m.set_mask][line.way] = None
        else:
            line.state = next_state

    def drain(self, line, next_state):
        """Snoop push at DRAIN priority: write back, enter next_state."""
        snooper = self.masters[line.pos]
        line = self.lines[line.base][line.pos]
        if line is None:
            return
        if line.state in _DIRTY:
            self.txn(BusOp.WRITE_LINE, line.base, snooper, data=line.data)
            self.bump(snooper.name + ".drains")
        self.commit(line, next_state)

    # -- processor side ---------------------------------------------------
    # The read and silent-write *hit* fast paths are inlined into the
    # replay loop in BatchEngine.run; the methods here carry the rest.
    def uncached_read(self, m, addr):
        _shared, value = self.txn(BusOp.READ, addr, m)
        self.bump(m.name + ".uncached_reads")
        return value

    def uncached_write(self, m, addr, value):
        self.txn(BusOp.WRITE, addr, m, data=value)
        self.bump(m.name + ".uncached_writes")

    def read_miss(self, m, addr, offset, wt):
        self.bump(m.key_read_misses)
        line = self._fill(m, addr, m.step_wt if wt else m.step, False)
        return line.data[offset]

    def write_miss(self, m, addr, offset, value, wt):
        self.bump(m.key_write_misses)
        step = m.step_wt if wt else m.step
        kind = step.write_miss
        if kind is WriteMiss.NO_ALLOCATE:
            self.txn(BusOp.WRITE, addr, m, data=value)
            self.bump(m.name + ".write_throughs")
            return
        if kind is WriteMiss.FILL_SHARED:
            # The write counts as a hit on the freshly filled line, like
            # the exact controller's fill-then-write-hit sequence.
            line = self._fill(m, addr, step, False)
            self.bump(m.key_hits)
            self.write_hit(m, addr, line, offset, value)
            return
        line = self._fill(m, addr, step, True)
        line.data[offset] = value
        line.state = State.MODIFIED

    def swap(self, m, addr, value, cacheable):
        if cacheable:
            raise ProtocolError(
                f"swap at 0x{addr:08x}: atomic exchange is only defined "
                "for uncached addresses (lock variables are never cached)"
            )
        _shared, old = self.txn(BusOp.SWAP, addr, m, data=value)
        return old

    def write_hit(self, m, addr, line, offset, value):
        """A write hit's transition and bus work (the hit already counted)."""
        new_state, action = line.step.write_hit_for(line.state)
        if action is WriteAction.NONE:
            line.state = new_state
            line.data[offset] = value
        elif action is WriteAction.WRITE_THROUGH:
            line.data[offset] = value
            self.txn(BusOp.WRITE, addr, m, data=value)
            self.bump(m.name + ".write_throughs")
        elif action is WriteAction.UPDATE:
            # Dragon broadcast: the raw (unfiltered) shared signal picks
            # between Sm (sharers remain) and M (nobody listened).
            shared, _data = self.txn(BusOp.UPDATE, addr, m, data=value)
            line.data[offset] = value
            line.state = State.OWNED if shared else State.MODIFIED
            self.bump(m.name + ".updates")
        else:
            # UPGRADE: address-only invalidate.  Serialised replay has no
            # competing RWITM in arbitration, so the race arm of the exact
            # controller (upgrade_races) is unreachable by construction.
            self.txn(BusOp.INVALIDATE, line.base, m)
            line.state = new_state
            line.data[offset] = value
            self.bump(m.name + ".upgrades")

    def _fill(self, m, addr, step, exclusive):
        base = addr & self.line_mask
        set_i = (addr >> m.offset_bits) & m.set_mask
        ways = m.sets[set_i]
        if None in ways:
            way = ways.index(None)
        else:
            way = min(range(len(ways)), key=lambda w: ways[w].lru)
            victim = ways[way]
            if victim.state in _DIRTY:
                self.txn(BusOp.WRITE_LINE, victim.base, m, data=victim.data)
                self.bump(m.name + ".writebacks")
            self.lines[victim.base][m.pos] = None
            ways[way] = None
            self.bump(m.name + ".evictions")
        op = BusOp.READ_LINE_EXCL if exclusive else BusOp.READ_LINE
        shared, data = self.txn(op, base, m)
        m.clock += 1
        line = _Line(base, way, step.fill_for(exclusive, shared), list(data), step, m.pos, m.clock)
        ways[way] = line
        row = self.lines.get(base)
        if row is None:
            row = self.lines[base] = [None] * len(self.masters)
        row[m.pos] = line
        self.bump(m.key_fills)
        return line

    # -- result extraction -------------------------------------------------
    def line_state_occupancy(self) -> Dict[str, Dict[str, int]]:
        occupancy = {}
        for m in self.masters:
            counts: Dict[str, int] = {}
            for ways in m.sets:
                for line in ways:
                    if line is not None:
                        key = line.state.value
                        counts[key] = counts.get(key, 0) + 1
            occupancy[m.name] = counts
        return occupancy


class BatchEngine(ISimEngine):
    """Statistics-only functional replay (no event kernel)."""

    name = "batch"
    version = 1

    def run(
        self, config: PlatformConfig, accesses: Sequence
    ) -> EngineRunResult:
        model = _BatchModel(config)
        masters = model.masters
        # A dict, not the list: masters[-1] would accept proc == -1.
        by_proc = dict(enumerate(masters))
        bases = model.region_bases
        ends = model.region_ends
        cacheables = model.region_cacheable
        wts = model.region_write_through
        bisect_right = bisect.bisect_right
        lines = model.lines
        line_mask = model.line_mask
        offset_mask = ~line_mask
        # Everything the hit fast path touches, bound to locals: the
        # common case (a read or silent-write hit) resolves in a couple
        # of dict probes with no method calls at all.
        hit_counts = [0] * len(masters)
        read_miss = model.read_miss
        write_miss = model.write_miss
        write_hit = model.write_hit
        uncached_read = model.uncached_read
        uncached_write = model.uncached_write
        swap = model.swap
        silent = WriteAction.NONE
        out: List[Optional[int]] = []
        append = out.append
        # Wall time is the engine's reported metric; the batch engine
        # models no simulated time at all (elapsed_ns stays 0).
        start = time.perf_counter()  # repro: lint-ok[determinism]
        for access in accesses:
            p = access.proc
            m = by_proc.get(p)
            if m is None:
                raise ConfigError("trace references a processor the config lacks")
            op = access.op
            addr = access.addr
            if m.enabled and op != "swap":
                row = lines.get(addr & line_mask)
                line = None if row is None else row[p]
                if line is not None:
                    # A resident line was filled through the cacheable
                    # path and regions are line-aligned, so a hit needs
                    # no region lookup.
                    clock = m.clock + 1
                    m.clock = clock
                    line.lru = clock
                    hit_counts[p] += 1
                    offset = (addr & offset_mask) >> 2
                    if op == "read":
                        append(line.data[offset])
                        continue
                    step = line.step
                    new_state, action = (
                        step.write_hit.get(line.state) or step.write_hit_for(line.state)
                    )
                    if action is silent:
                        line.state = new_state
                        line.data[offset] = access.value
                    else:
                        write_hit(m, addr, line, offset, access.value)
                    append(None)
                    continue
            # A miss, a swap or a disabled cache: classify the region.
            r = bisect_right(bases, addr) - 1
            if r < 0 or addr >= ends[r]:
                raise ConfigError(f"trace access at unmapped address 0x{addr:08x}")
            cacheable = m.enabled and cacheables[r]
            if op == "swap":
                append(swap(m, addr, access.value, cacheable))
            elif cacheable:
                offset = (addr & offset_mask) >> 2
                if op == "read":
                    append(read_miss(m, addr, offset, wts[r]))
                else:
                    write_miss(m, addr, offset, access.value, wts[r])
                    append(None)
            elif op == "read":
                append(uncached_read(m, addr))
            else:
                uncached_write(m, addr, access.value)
                append(None)
        wall = time.perf_counter() - start  # repro: lint-ok[determinism]
        for m, hits in zip(masters, hit_counts):
            if hits:
                model.bump(m.key_hits, hits)
        return EngineRunResult(
            engine=self.name,
            stats=dict(model.stats),
            accesses=len(accesses),
            events=0,
            elapsed_ns=0,
            wall_s=wall,
            line_states=model.line_state_occupancy(),
            values=out,
        )

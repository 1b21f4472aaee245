"""The batch engine: trace-driven functional replay, statistics only.

Executes the *same coherence step* as the event kernel — the
transition tables and window resolution of :mod:`repro.core.coherence`
(protocol FSMs behind the reduction algebra's wrapper policies), the
bus ARTRY/drain loop, LRU victim selection — but as a direct
functional evaluation with no event kernel at all: no
generators, no time heap, no arbitration, no tracing.  The cost per
access drops from ~30 fired kernel events to a handful of dict
operations, which is where the order-of-magnitude speedup comes from
(see ``docs/engines.md`` for the full argument and its limits).

The replay is one pass over the trace.  Each access is decomposed
(set index and tag) where it is replayed, and a hit resolves with no
further work.  Only a miss, a swap or a disabled cache looks up the
address's region (mapped, cacheable, write-through).  The loop is
inherently sequential: every access's outcome depends on the cache
and coherence state left by the previous one.

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
from typing import Dict, List, Optional, Sequence, Tuple

from ..bus.types import BusOp, SnoopAction
from ..cache.line import State
from ..cache.protocols import make_protocol
from ..cache.protocols.base import WriteAction
from ..core.coherence import resolve_window, step_for
from ..core.platform import PlatformConfig, build_memory_map
from ..core.reduction import WrapperPolicy, reduce_protocols
from ..errors import ConfigError, ProtocolError
from ..mem.map import WritePolicy
from .interfaces import EngineRunResult, ISimEngine

__all__ = ["BatchEngine"]

_WORD_MASK = 0xFFFF_FFFF
_DIRTY = (State.MODIFIED, State.OWNED)
_RETRY = SnoopAction.RETRY

# Interned stat-key strings: the bus bumps run once per transaction, so
# the "bus.op.<x>" concatenation is hoisted out of the hot loop.
_OP_KEYS = {op: "bus.op." + op.value for op in BusOp}


class _Line:
    """One resident line: the functional mirror of CacheLine."""

    __slots__ = ("tag", "state", "data", "protocol", "lru")

    def __init__(self, tag, state, data, protocol, lru):
        self.tag = tag
        self.state = state
        self.data = data
        self.protocol = protocol
        self.lru = lru


class _Master:
    """One master's cache: geometry, policy, and line storage."""

    __slots__ = (
        "name", "enabled", "protocol", "protocol_wt", "steps",
        "offset_bits", "tag_shift",
        "set_mask", "line_mask", "offset_mask", "line_words", "ways",
        "sets", "index", "clock",
        "key_hits", "key_read_misses", "key_write_misses", "key_fills",
        "key_bus_master",
    )

    def __init__(self, cfg, policy):
        geom = cfg.geometry()
        self.name = cfg.name
        self.enabled = cfg.cache_enabled
        self.protocol = make_protocol(cfg.protocol)
        self.protocol_wt = (
            make_protocol(cfg.protocol_wt) if cfg.protocol_wt else None
        )
        #: each protocol's coherence step behind this master's wrapper
        self.steps = {
            protocol: step_for(protocol, policy)
            for protocol in (self.protocol, self.protocol_wt)
            if protocol is not None
        }
        self.offset_bits = geom._offset_bits
        self.tag_shift = geom._offset_bits + geom._index_bits
        self.set_mask = geom.n_sets - 1
        self.line_mask = ~(geom.line_bytes - 1)
        self.offset_mask = geom.line_bytes - 1
        self.line_words = geom.line_words
        self.ways = geom.ways
        self.sets: List[List[Optional[_Line]]] = [
            [None] * geom.ways for _ in range(geom.n_sets)
        ]
        self.index: List[Dict[int, Tuple[int, _Line]]] = [
            {} for _ in range(geom.n_sets)
        ]
        self.clock = 0
        self.key_hits = f"{cfg.name}.hits"
        self.key_read_misses = f"{cfg.name}.read_misses"
        self.key_write_misses = f"{cfg.name}.write_misses"
        self.key_fills = f"{cfg.name}.fills"
        self.key_bus_master = f"bus.master.{cfg.name}"

    def probe(self, addr: int):
        """(line, set index, tag) for ``addr``; line None on miss."""
        set_i = (addr >> self.offset_bits) & self.set_mask
        tag = addr >> self.tag_shift
        entry = self.index[set_i].get(tag)
        if entry is None:
            return None, set_i, tag
        return entry[1], set_i, tag


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
            _Master(cfg, policy)
            for cfg, policy in zip(config.cores, policies)
        ]
        self.mem: Dict[int, int] = {}
        self.stats: Dict[str, int] = {}
        # Eager write-hit tables (protocol id -> state -> outcome) so
        # the replay loop resolves a write hit with two dict probes.
        self.write_hit_tables: Dict[int, Dict[State, tuple]] = {}
        for m in self.masters:
            for protocol in m.steps:
                if id(protocol) in self.write_hit_tables:
                    continue
                table: Dict[State, tuple] = {}
                for state in protocol.states:
                    try:
                        table[state] = protocol.write_hit(state)
                    except ProtocolError:
                        # Unreachable for this protocol's lines; a hit
                        # in such a state re-raises through the
                        # fallback path, matching the exact engine.
                        pass
                self.write_hit_tables[id(protocol)] = table

    # -- stats ----------------------------------------------------------
    def bump(self, key: str, amount: int = 1) -> None:
        stats = self.stats
        stats[key] = stats.get(key, 0) + amount

    # -- write-hit fallback ---------------------------------------------
    def _write_hit_outcome(self, protocol, state):
        outcome = self.write_hit_tables[id(protocol)].get(state)
        if outcome is None:
            # Let the protocol raise its own error for a foreign state.
            outcome = protocol.write_hit(state)
        return outcome

    # -- the bus ---------------------------------------------------------
    def txn(self, op, addr, master, data=None, line_words=0):
        """One bus tenure: snoop window, ARTRY/drain loop, data phase.

        Returns ``(shared, data)`` — the sampled shared signal and the
        data-phase payload — mirroring the exact bus's BusResult.
        """
        stats = self.stats
        for key in ("bus.txns", _OP_KEYS[op], master.key_bus_master):
            stats[key] = stats.get(key, 0) + 1
        shared = False
        supplier = None
        if self.snooping:
            while True:
                window = []
                for snooper in self.masters:
                    if snooper is master:
                        continue
                    set_i = (addr >> snooper.offset_bits) & snooper.set_mask
                    tag = addr >> snooper.tag_shift
                    entry = snooper.index[set_i].get(tag)
                    if entry is None:
                        continue
                    line = entry[1]
                    step = snooper.steps[line.protocol]
                    out = step.table[op].get(line.state) or step.outcome(
                        op, line.state, snooper.name
                    )
                    if out.apply_update:
                        line.data[(addr & snooper.offset_mask) >> 2] = data
                    window.append(((snooper, line), out))
                    if out.action is not _RETRY:
                        # ARTRY defers a drainer's commit to its push.
                        self._apply_snoop_state(snooper, line, set_i, tag, out.next_state)
                retriers, shared, supplier = resolve_window(window)
                if not retriers:
                    break
                stats["bus.retries"] = stats.get("bus.retries", 0) + 1
                for (snooper, _line), out in retriers:
                    self._drain(snooper, addr, out.next_state)
                # The master re-arbitrates and the address phase
                # re-snoops everyone against the post-drain states.
        if supplier is not None:
            stats["bus.c2c_supplies"] = stats.get("bus.c2c_supplies", 0) + 1
            return shared, list(supplier[0][1].data)
        return shared, self._data_phase(op, addr, data, line_words)

    def _data_phase(self, op, addr, data, line_words):
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
            return [mem.get(addr + 4 * i, 0) for i in range(line_words)]
        if op is BusOp.WRITE_LINE:
            for i, value in enumerate(data):
                mem[addr + 4 * i] = value & _WORD_MASK
            return None
        # INVALIDATE / UPDATE: address-only as far as memory is concerned.
        return None

    def _apply_snoop_state(self, snooper, line, set_i, tag, next_state):
        if next_state is State.INVALID:
            way, _line = snooper.index[set_i].pop(tag)
            snooper.sets[set_i][way] = None
        else:
            line.state = next_state

    def _drain(self, snooper, addr, next_state):
        """Snoop push at DRAIN priority: write back, enter next_state."""
        base = addr & snooper.line_mask
        line, set_i, tag = snooper.probe(base)
        if line is None:
            return
        if line.state not in _DIRTY:
            self._apply_snoop_state(snooper, line, set_i, tag, next_state)
            return
        self.txn(
            BusOp.WRITE_LINE, base, snooper,
            data=line.data, line_words=snooper.line_words,
        )
        self._apply_snoop_state(snooper, line, set_i, tag, next_state)
        self.bump(snooper.name + ".drains")

    # -- processor side ---------------------------------------------------
    # The read/write *hit* fast paths are inlined into the replay loop
    # in BatchEngine.run; the methods here carry the miss, uncached and
    # non-trivial write-hit tails.
    def uncached_read(self, m, addr):
        _shared, value = self.txn(BusOp.READ, addr, m)
        self.bump(m.name + ".uncached_reads")
        return value

    def uncached_write(self, m, addr, value):
        self.txn(BusOp.WRITE, addr, m, data=value)
        self.bump(m.name + ".uncached_writes")

    def read_miss(self, m, addr, set_i, tag, offset, wt):
        self.bump(m.key_read_misses)
        line = self._fill(m, addr, set_i, tag, wt, exclusive=False)
        return line.data[offset]

    def write_miss(self, m, addr, set_i, tag, offset, value, wt):
        self.bump(m.key_write_misses)
        protocol = self._protocol_for(m, wt)
        if State.MODIFIED not in protocol.states:
            # Write-through, no-allocate: the word goes straight out.
            self.txn(BusOp.WRITE, addr, m, data=value)
            self.bump(m.name + ".write_throughs")
            return
        if getattr(protocol, "update_based", False):
            # Update protocols have no RWITM: fill shared, then write
            # (which broadcasts when sharers exist); the write counts
            # as a hit on the freshly filled line, like the exact
            # controller's fill-then-write-hit sequence.
            line = self._fill(m, addr, set_i, tag, wt, exclusive=False)
            self.bump(m.key_hits)
            new_state, action = self._write_hit_outcome(line.protocol, line.state)
            if action is WriteAction.NONE:
                line.state = new_state
                line.data[offset] = value
            else:
                self.write_hit_action(m, addr, line, offset, value,
                                      new_state, action)
            return
        line = self._fill(m, addr, set_i, tag, wt, exclusive=True)
        line.data[offset] = value
        if line.state is not State.MODIFIED:
            line.state = State.MODIFIED

    def swap(self, m, addr, value, cacheable):
        if cacheable:
            raise ProtocolError(
                f"swap at 0x{addr:08x}: atomic exchange is only defined "
                "for uncached addresses (lock variables are never cached)"
            )
        _shared, old = self.txn(BusOp.SWAP, addr, m, data=value)
        return old

    def write_hit_action(self, m, addr, line, offset, value, new_state, action):
        """The non-silent write-hit tails (hit already counted)."""
        if action is WriteAction.WRITE_THROUGH:
            line.data[offset] = value
            self.txn(BusOp.WRITE, addr, m, data=value)
            self.bump(m.name + ".write_throughs")
            return
        if action is WriteAction.UPDATE:
            # Dragon broadcast: the raw (unfiltered) shared signal picks
            # between Sm (sharers remain) and M (nobody listened).
            shared, _data = self.txn(BusOp.UPDATE, addr, m, data=value)
            line.data[offset] = value
            line.state = State.OWNED if shared else State.MODIFIED
            self.bump(m.name + ".updates")
            return
        # UPGRADE: address-only invalidate.  Serialised replay has no
        # competing RWITM in arbitration, so the race arm of the exact
        # controller (upgrade_races) is unreachable by construction.
        base = addr & m.line_mask
        self.txn(BusOp.INVALIDATE, base, m)
        line.state = new_state
        line.data[offset] = value
        self.bump(m.name + ".upgrades")

    def _fill(self, m, addr, set_i, tag, wt, exclusive):
        protocol = self._protocol_for(m, wt)
        base = addr & m.line_mask
        ways = m.sets[set_i]
        way = None
        for w, resident in enumerate(ways):
            if resident is None:
                way = w
                break
        if way is None:
            way = min(range(m.ways), key=lambda w: ways[w].lru)
            victim = ways[way]
            victim_base = (victim.tag << m.tag_shift) | (set_i << m.offset_bits)
            if victim.state in _DIRTY:
                self.txn(
                    BusOp.WRITE_LINE, victim_base, m,
                    data=victim.data, line_words=m.line_words,
                )
                self.bump(m.name + ".writebacks")
            del m.index[set_i][victim.tag]
            ways[way] = None
            self.bump(m.name + ".evictions")
        op = BusOp.READ_LINE_EXCL if exclusive else BusOp.READ_LINE
        shared, data = self.txn(op, base, m, line_words=m.line_words)
        state = m.steps[protocol].fill(exclusive, shared)
        m.clock += 1
        line = _Line(tag, state, list(data), protocol, m.clock)
        ways[way] = line
        m.index[set_i][tag] = (way, line)
        self.bump(m.key_fills)
        return line

    def _protocol_for(self, m, wt):
        if wt and m.protocol_wt is not None:
            return m.protocol_wt
        return m.protocol

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
        # Everything the hit fast path touches, bound to locals: the
        # common case (a read or silent-write hit) resolves in a couple
        # of dict probes with no method calls at all.
        wh_tables = model.write_hit_tables
        hit_counts = [0] * len(masters)
        read_miss = model.read_miss
        write_miss = model.write_miss
        write_hit_action = model.write_hit_action
        write_hit_outcome = model._write_hit_outcome
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
                set_i = (addr >> m.offset_bits) & m.set_mask
                tag = addr >> m.tag_shift
                entry = m.index[set_i].get(tag)
                if entry is not None:
                    # A resident line was filled through the cacheable
                    # path and regions are line-aligned, so a hit needs
                    # no region lookup.
                    line = entry[1]
                    clock = m.clock + 1
                    m.clock = clock
                    line.lru = clock
                    hit_counts[p] += 1
                    offset = (addr & m.offset_mask) >> 2
                    if op == "read":
                        append(line.data[offset])
                        continue
                    outcome = wh_tables[id(line.protocol)].get(line.state)
                    if outcome is None:
                        outcome = write_hit_outcome(line.protocol, line.state)
                    new_state, action = outcome
                    if action is silent:
                        line.state = new_state
                        line.data[offset] = access.value
                    else:
                        write_hit_action(m, addr, line, offset, access.value,
                                         new_state, action)
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
                offset = (addr & m.offset_mask) >> 2
                if op == "read":
                    append(read_miss(m, addr, set_i, tag, offset, wts[r]))
                else:
                    write_miss(m, addr, set_i, tag, offset, access.value, wts[r])
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

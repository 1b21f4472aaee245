"""Heterogeneous platform assembly (Table 1, Figs 2 and 3).

:class:`Platform` wires a complete SoC from a :class:`PlatformConfig`:
cores with their clock domains and data caches, the shared ASB-like bus
with its arbiter, main memory with Table 4 timing, and — when hardware
coherence is enabled — the paper's machinery: one :class:`Wrapper` per
coherent processor (policies computed by :func:`reduce_protocols`) and
one :class:`SnoopLogic` (TAG CAM + nFIQ + mailbox) per processor
without coherence hardware.

The platform class (PF1/PF2/PF3) is derived from the core configs; the
standard memory layout reserves a private region per core, a shared
region (cacheability is the evaluation knob), an uncacheable lock
region (cacheable only in the Fig 4 deadlock demonstration), mailboxes
for the snoop logic and an optional hardware lock register.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..bus.arbiter import ARBITERS
from ..cache.array import CacheGeometry
from ..cache.controller import CacheController
from ..cache.protocols import make_protocol
from ..cpu.assembler import Program
from ..cpu.core import Core
from ..cpu.presets import CoreConfig
from ..errors import ConfigError
from ..fabric import FABRICS
from ..faults import FaultEngine, FaultSpec, Watchdog, WatchdogConfig, apply_faults
from ..mem.controller import MemoryController, MemoryTiming
from ..mem.map import MemoryMap, Region, WritePolicy
from ..mem.memory import MainMemory
from ..sim import Clock, Simulator, Stats, Tracer
from .lock_register import LockRegister
from .reduction import ReductionResult, reduce_protocols
from .snoop_logic import SnoopLogic
from .wrapper import Wrapper

__all__ = [
    "FABRIC_NAMES",
    "PlatformConfig",
    "Platform",
    "build_memory_map",
    "classify_platform",
    "PRIVATE_BASE",
    "PRIVATE_STRIDE",
    "SHARED_BASE",
    "SHARED_SIZE",
    "LOCK_BASE",
    "MAILBOX_BASE",
    "MAILBOX_STRIDE",
    "LOCKREG_BASE",
    "SCRATCH_BASE",
]

# -- the standard memory layout ---------------------------------------------
PRIVATE_BASE = 0x0000_0000
PRIVATE_STRIDE = 0x0010_0000   # 1 MiB private region per core
SHARED_BASE = 0x2000_0000
SHARED_SIZE = 0x0010_0000
LOCK_BASE = 0x3000_0000
LOCK_SIZE = 0x0000_1000
MAILBOX_BASE = 0x4000_0000
MAILBOX_STRIDE = 0x0000_1000
LOCKREG_BASE = 0x5000_0000
LOCKREG_SIZE = 0x0000_1000
SCRATCH_BASE = 0x6000_0000
SCRATCH_SIZE = 0x0000_1000

#: the coherence-fabric names: the keys of :data:`repro.fabric.FABRICS`
FABRIC_NAMES = tuple(FABRICS)


def classify_platform(configs: Sequence[CoreConfig]) -> str:
    """Table 1: PF1 (no coherence hw), PF2 (mixed), PF3 (all coherent)."""
    coherent = [cfg.coherent for cfg in configs]
    if all(coherent):
        return "PF3"
    if not any(coherent):
        return "PF1"
    return "PF2"


@dataclass(frozen=True)
class PlatformConfig:
    """Everything that defines one platform instance."""

    cores: Tuple[CoreConfig, ...]
    bus_mhz: float = 50.0
    memory_timing: Optional[MemoryTiming] = None
    #: attach wrappers + snoop logic (the proposed solution); when False
    #: the caches do not snoop at all (software / disabled solutions)
    hardware_coherence: bool = True
    #: whether the shared-data region may be cached (Table 4 knob)
    shared_cacheable: bool = True
    #: cache the lock region — only the Fig 4 deadlock demo wants this
    cacheable_locks: bool = False
    #: add the 1-bit hardware lock register device
    lock_register: bool = False
    #: bus service discipline: "fcfs"/"fixed" | "priority" | "round-robin"
    arbitration: str = "fixed"
    #: snoop-push scheduling: "retry-first" queues drains behind the
    #: processor's own backed-off transaction on the single tag/data
    #: port (the paper's controllers — the Fig 4 ingredient); "window"
    #: models a dedicated snoop machine that pushes in the post-ARTRY
    #: window of opportunity, which N-master platforms need to avoid
    #: cross-drain deadlock on contended dirty lines
    drain_policy: str = "retry-first"
    trace_channels: Tuple[str, ...] = ()  # e.g. ("bus", "cache", "irq")
    #: ring-buffer cap on stored trace records (None = unbounded)
    trace_capacity: Optional[int] = None
    #: ARTRY ceiling per bus transaction before LivelockError (None = off)
    max_bus_retries: Optional[int] = 1000
    #: attach a progress watchdog with these thresholds (None = off)
    watchdog: Optional[WatchdogConfig] = None
    #: fault injectors to arm (empty = pristine platform)
    faults: Tuple[FaultSpec, ...] = ()
    #: coherence fabric: "atomic" (the paper-faithful snoopy ASB, the
    #: default), "split" (split-transaction pipelined bus) or
    #: "directory" (per-line-home directory interconnect) — see
    #: docs/fabrics.md
    fabric: str = "atomic"
    #: allocate shared-region lines write-through (the Intel486's WB/WT
    #: line split: cores with a ``protocol_wt`` use it for these lines)
    shared_write_through: bool = False

    def __post_init__(self):
        if not self.cores:
            raise ConfigError("a platform needs at least one core")
        names = [cfg.name for cfg in self.cores]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise ConfigError(
                f"core names must be unique; duplicated: {duplicates} "
                "(name-keyed program loading and bus mastership would be "
                "ambiguous)"
            )
        line_sizes = {cfg.cache_line_bytes for cfg in self.cores}
        if len(line_sizes) != 1:
            # A config-shape error, not an integration impossibility:
            # snooping is line-granular, so one system-wide line size is
            # a model precondition for *any* number of masters.
            raise ConfigError(
                "all caches must share one line size for snooping to be "
                f"line-granular; got {sorted(line_sizes)} across "
                f"{len(self.cores)} cores — resize the caches or split "
                "the platform"
            )
        max_private = (SHARED_BASE - PRIVATE_BASE) // PRIVATE_STRIDE
        max_mailbox = (LOCKREG_BASE - MAILBOX_BASE) // MAILBOX_STRIDE
        limit = min(max_private, max_mailbox)
        if len(self.cores) > limit:
            raise ConfigError(
                f"{len(self.cores)} cores exceed the standard memory "
                f"layout's capacity of {limit} (private regions of "
                f"{PRIVATE_STRIDE:#x} bytes each must fit below the "
                f"shared region at {SHARED_BASE:#x})"
            )
        if self.arbitration not in ARBITERS:
            raise ConfigError(
                f"unknown arbitration {self.arbitration!r}; pick from "
                f"{sorted(set(ARBITERS))}"
            )
        if self.drain_policy not in ("retry-first", "window"):
            raise ConfigError(
                f"unknown drain policy {self.drain_policy!r}; pick "
                "'retry-first' (paper-faithful single port) or 'window' "
                "(dedicated snoop machine)"
            )
        if self.fabric not in FABRIC_NAMES:
            raise ConfigError(
                f"unknown fabric {self.fabric!r}; pick from "
                f"{list(FABRIC_NAMES)}"
            )

    @property
    def line_bytes(self) -> int:
        """The system-wide cache line size (validated homogeneous)."""
        return self.cores[0].cache_line_bytes

    def with_(self, **changes) -> "PlatformConfig":
        """A modified copy."""
        return replace(self, **changes)


def build_memory_map(config: PlatformConfig) -> MemoryMap:
    """The standard memory layout for ``config`` (devices unbound).

    Shared between :class:`Platform` (which binds the mailbox / lock
    register devices afterwards) and engines that model the address
    space without instantiating a platform at all.
    """
    memory_map = MemoryMap()
    for index, cfg in enumerate(config.cores):
        memory_map.add(
            Region(
                name=f"private:{cfg.name}",
                base=PRIVATE_BASE + index * PRIVATE_STRIDE,
                size=PRIVATE_STRIDE,
            )
        )
    memory_map.add(
        Region(
            name="shared",
            base=SHARED_BASE,
            size=SHARED_SIZE,
            cacheable=config.shared_cacheable,
            shared=True,
            write_policy=(
                WritePolicy.WRITE_THROUGH
                if config.shared_write_through
                else WritePolicy.WRITE_BACK
            ),
        )
    )
    memory_map.add(
        Region(
            name="locks",
            base=LOCK_BASE,
            size=LOCK_SIZE,
            cacheable=config.cacheable_locks,
            shared=True,
        )
    )
    for index, cfg in enumerate(config.cores):
        if not cfg.coherent:
            memory_map.add(
                Region(
                    name=f"mailbox:{cfg.name}",
                    base=MAILBOX_BASE + index * MAILBOX_STRIDE,
                    size=MAILBOX_STRIDE,
                    cacheable=False,
                )
            )
    # The lock-register region always exists (device bound on demand)
    # so programs can be laid out independently of the config.
    memory_map.add(
        Region(name="lockreg", base=LOCKREG_BASE, size=LOCKREG_SIZE, cacheable=False)
    )
    # Always-uncacheable scratch words for handshakes and flags.
    memory_map.add(
        Region(name="scratch", base=SCRATCH_BASE, size=SCRATCH_SIZE,
               cacheable=False, shared=True)
    )
    return memory_map


class Platform:
    """A fully wired heterogeneous multiprocessor platform."""

    def __init__(self, config: PlatformConfig):
        self.config = config
        self.sim = Simulator()
        self.tracer = Tracer(
            channels=config.trace_channels, capacity=config.trace_capacity
        )
        self.stats = Stats()
        self.pf_class = classify_platform(config.cores)

        self.memory = MainMemory()
        self.map = self._build_map()
        timing = config.memory_timing or MemoryTiming()
        self.memory_controller = MemoryController(self.memory, self.map, timing)
        bus_clock = Clock.from_mhz(config.bus_mhz, name="bus")
        arbiter_cls = ARBITERS[config.arbitration]
        if config.arbitration == "priority":
            # Static priority rank = core order (core 0 highest), the
            # conventional wiring for a fixed-priority bus.
            ranking = [cfg.name for cfg in config.cores]

            def arbiter_factory():
                return arbiter_cls(self.sim, ranking=ranking)
        else:
            def arbiter_factory():
                return arbiter_cls(self.sim)
        self.bus = FABRICS[config.fabric].build(
            self.sim,
            bus_clock,
            self.memory_controller,
            arbiter_factory=arbiter_factory,
            tracer=self.tracer,
            stats=self.stats,
            max_retries=config.max_bus_retries,
        )

        self.cores: List[Core] = []
        self.controllers: List[CacheController] = []
        self._by_name: Dict[str, int] = {}
        for index, cfg in enumerate(config.cores):
            self._add_core(index, cfg)

        self.lock_register: Optional[LockRegister] = None
        if config.lock_register:
            self.lock_register = LockRegister(LOCKREG_BASE)
            self.map.replace("lockreg", device=self.lock_register)

        self.reduction: Optional[ReductionResult] = None
        self.wrappers: List[Optional[Wrapper]] = [None] * len(self.cores)
        self.snoop_logics: List[Optional[SnoopLogic]] = [None] * len(self.cores)
        if config.hardware_coherence:
            self._attach_coherence()

        # Faults arm last so injectors see the fully wired topology.
        self.fault_engine: Optional[FaultEngine] = apply_faults(self, config.faults)
        self.watchdog: Optional[Watchdog] = (
            Watchdog(self, config.watchdog) if config.watchdog is not None else None
        )

    # -- construction -------------------------------------------------------
    def _build_map(self) -> MemoryMap:
        return build_memory_map(self.config)

    def _add_core(self, index: int, cfg: CoreConfig) -> None:
        clock = Clock.from_mhz(cfg.freq_mhz, name=f"{cfg.name}.clk")
        # A non-coherent processor still has a write-back cache; MEI
        # describes its local valid/dirty behaviour.
        local_protocol = make_protocol(cfg.protocol) if cfg.coherent else make_protocol("MEI")
        protocol_wt = make_protocol(cfg.protocol_wt) if cfg.protocol_wt else None
        controller = CacheController(
            name=cfg.name,
            sim=self.sim,
            bus=self.bus,
            memory_map=self.map,
            geometry=cfg.geometry(),
            protocol=local_protocol,
            protocol_wt=protocol_wt,
            tracer=self.tracer,
            stats=self.stats,
            enabled=cfg.cache_enabled,
            coherent=cfg.coherent,
            drain_needs_port=(self.config.drain_policy == "retry-first"),
        )
        core = Core(
            name=cfg.name,
            sim=self.sim,
            clock=clock,
            dcache=controller,
            cpi=cfg.cpi,
            sync_cycles=cfg.sync_cycles,
            fiq_response_cycles=cfg.fiq_response_cycles,
            fiq_response_jitter_cycles=cfg.fiq_response_jitter_cycles,
            interrupt_entry_cycles=cfg.interrupt_entry_cycles,
            rfi_cycles=cfg.rfi_cycles,
            isr_drain_priority=cfg.isr_drain_priority,
            tracer=self.tracer,
            stats=self.stats,
        )
        self.cores.append(core)
        self.controllers.append(controller)
        self._by_name[cfg.name] = index
        # The bus mirrors this cache's line occupancy into its presence
        # map (the controller's install/remove listeners).
        self.bus.register_master(cfg.name, controller)

    def _attach_coherence(self) -> None:
        protocols = [
            cfg.protocol if cfg.coherent else None for cfg in self.config.cores
        ]
        self.reduction = reduce_protocols(protocols)
        for index, cfg in enumerate(self.config.cores):
            if cfg.coherent:
                self.wrappers[index] = Wrapper(
                    self.sim,
                    self.controllers[index],
                    self.reduction.policy_for(index),
                    self.bus,
                )
            else:
                self.snoop_logics[index] = SnoopLogic(
                    self.sim,
                    self.controllers[index],
                    self.cores[index].fiq,
                    self.mailbox_base(index),
                    self.bus,
                )
                self.map.replace(
                    f"mailbox:{cfg.name}", device=self.snoop_logics[index]
                )

    # -- addressing helpers ----------------------------------------------------
    def mailbox_base(self, index: int) -> int:
        """Mailbox base address of the ``index``-th core's snoop logic."""
        return MAILBOX_BASE + index * MAILBOX_STRIDE

    def private_base(self, index: int) -> int:
        """Private-region base address of the ``index``-th core."""
        return PRIVATE_BASE + index * PRIVATE_STRIDE

    # -- access by name -----------------------------------------------------------
    def index_of(self, name: str) -> int:
        """Index of the core named ``name``."""
        return self._by_name[name]

    def core(self, name: str) -> Core:
        """The core named ``name``."""
        return self.cores[self._by_name[name]]

    def controller(self, name: str) -> CacheController:
        """The cache controller of the core named ``name``."""
        return self.controllers[self._by_name[name]]

    # -- running --------------------------------------------------------------
    def load_programs(self, programs: Mapping[str, Program]) -> None:
        """Install one program per core, keyed by core name."""
        for name, program in programs.items():
            self.core(name).load_program(program)

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Start every loaded core and run until all have halted.

        Returns the completion time in ticks (ns): the instant the last
        core executed HALT.  Raises
        :class:`~repro.errors.DeadlockError` when the system wedges (the
        Fig 4 scenario).
        """
        started = []
        for core in self.cores:
            if core.program is not None and core.process is None:
                core.start()
                started.append(core)
        if not started:
            raise ConfigError("no core has a program loaded")
        if self.watchdog is not None:
            self.watchdog.start()
        all_done = self.sim.all_of([core.done for core in started])
        self.sim.run(until=until, stop_event=all_done, max_events=max_events)
        if not all_done.triggered:
            # run() returned because `until` expired.
            return self.sim.now
        return max(core.halt_time or 0 for core in started)

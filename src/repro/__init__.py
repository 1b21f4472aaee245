"""repro — heterogeneous shared-bus cache coherence, reproduced.

A production-quality Python reproduction of *"Supporting Cache
Coherence in Heterogeneous Multiprocessor Systems"* (Suh, Blough, Lee —
DATE 2004): bus wrappers that integrate processors with different
invalidation protocols (MEI / MSI / MESI / MOESI), snoop logic with a
TAG CAM and nFIQ service routine for processors with no coherence
hardware, the protocol-reduction algebra of Section 2, the hardware
lock register, the Fig 4 hardware-deadlock analysis, and the complete
evaluation stack (ASB-like bus, cycle-accounted caches and cores, the
WCS/TCS/BCS microbenchmarks, and figure/headline regeneration).

Quick start::

    from repro import MicrobenchSpec, run_microbench

    spec = MicrobenchSpec(scenario="bcs", solution="proposed", lines=32)
    result = run_microbench(spec, check=True)
    print(result.elapsed_ns, "ns")

See ``examples/`` for complete walkthroughs and ``repro bench paper``
for the regeneration of every table and figure.
"""

from .analysis import (
    FigureData,
    compute_headlines,
    figure5_wcs,
    figure6_bcs,
    figure7_tcs,
    figure8_miss_penalty,
)
from .cache import CacheController, CacheGeometry, State, make_protocol
from .core import (
    LockRegister,
    Platform,
    PlatformConfig,
    SnoopLogic,
    Wrapper,
    WrapperPolicy,
    classify_platform,
    reduce_protocols,
)
from .core.deadlock import DeadlockOutcome, run_deadlock_demo
from .cpu import (
    Assembler,
    Core,
    CoreConfig,
    Program,
    preset_arm920t,
    preset_generic,
    preset_intel486,
    preset_powerpc755,
)
from .errors import (
    CoherenceViolation,
    ConfigError,
    DeadlockError,
    IntegrationError,
    LivelockError,
    ReproError,
)
from .exp import MicrobenchJob, ResultCache, SequenceJob, SweepRunner
from .faults import FaultSpec, Watchdog, WatchdogConfig, WatchdogReport
from .mem import MainMemory, MemoryMap, MemoryTiming, Region
from .sim import Clock, Simulator
from .sync import BakeryLock, HwLock, SwapLock, TurnLock
from .verify import CoherenceChecker
from .workloads import (
    MicrobenchResult,
    MicrobenchSpec,
    run_microbench,
    run_sequence,
    table2_demo,
    table3_demo,
)

__version__ = "1.0.0"

__all__ = [
    # platform + paper machinery
    "Platform",
    "PlatformConfig",
    "classify_platform",
    "Wrapper",
    "WrapperPolicy",
    "SnoopLogic",
    "LockRegister",
    "reduce_protocols",
    "run_deadlock_demo",
    "DeadlockOutcome",
    # processors
    "Core",
    "CoreConfig",
    "Assembler",
    "Program",
    "preset_powerpc755",
    "preset_arm920t",
    "preset_intel486",
    "preset_generic",
    # caches / memory / bus substrate
    "CacheController",
    "CacheGeometry",
    "State",
    "make_protocol",
    "MainMemory",
    "MemoryMap",
    "MemoryTiming",
    "Region",
    "Simulator",
    "Clock",
    # synchronization
    "TurnLock",
    "SwapLock",
    "HwLock",
    "BakeryLock",
    # verification
    "CoherenceChecker",
    "CoherenceViolation",
    # workloads + analysis
    "MicrobenchSpec",
    "MicrobenchResult",
    "run_microbench",
    "run_sequence",
    "table2_demo",
    "table3_demo",
    "FigureData",
    "figure5_wcs",
    "figure6_bcs",
    "figure7_tcs",
    "figure8_miss_penalty",
    "compute_headlines",
    # experiment orchestration
    "SweepRunner",
    "ResultCache",
    "MicrobenchJob",
    "SequenceJob",
    # fault injection + liveness
    "FaultSpec",
    "Watchdog",
    "WatchdogConfig",
    "WatchdogReport",
    # errors
    "ReproError",
    "ConfigError",
    "IntegrationError",
    "DeadlockError",
    "LivelockError",
    "__version__",
]

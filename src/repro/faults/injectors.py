"""Deterministic fault injectors.

Each injector *wraps* an existing component — a snooper on the bus, a
snoop logic's nFIQ line, a TAG-CAM maintenance listener, the arbiter's
selection policy, the memory controller — without forking its logic:
the wrapped component keeps doing exactly what it did, and the injector
perturbs one observable interaction per its :class:`FaultSpec` trigger.

Registered sites
----------------
``drain.drop``
    A snooper answers ARTRY but its push-completion signal is lost: the
    backed-off master waits forever.  Liveness fault → watchdog.
``drain.delay``
    The completion signal lands ``delay_ns`` late.  Benign (slower).
``snoop.silent``
    The snooper misses the address compare and answers OK while holding
    the line (possibly dirty).  Coherence fault → stale reads, caught
    by :class:`~repro.verify.CoherenceChecker`.
``retry.storm``
    The snooper answers ARTRY with an already-satisfied completion on
    every matching transaction: the master re-arbitrates forever.
    Livelock → the bus's bounded-retry ceiling.
``fiq.lose``
    The snoop logic's nFIQ assertion is dropped; the ISR never runs and
    the hit line is never drained.  Liveness fault → watchdog.
``fiq.delay``
    nFIQ assertion lands ``delay_ns`` late (suppressed if the backlog
    drained in the meantime).  Benign (slower).
``cam.stale``
    After an eviction the TAG CAM keeps the dead tag: later snoop hits
    on it queue service requests no DCBF can ever satisfy.  Liveness
    fault → watchdog.
``arbiter.starve``
    The arbiter skips the target master's requests: grant starvation.
    Liveness fault → watchdog.
``mem.delay``
    The memory controller's data phase takes ``extra_cycles`` longer on
    faulted accesses.  Benign (slower).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Type

from ..bus.asb import Snooper
from ..bus.types import SnoopAction, SnoopReply, Transaction
from ..errors import ConfigError
from ..sim.kernel import Timeout
from .spec import FaultSpec, FaultTrigger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.platform import Platform

__all__ = ["FaultInjector", "FaultEngine", "SITES", "apply_faults"]


class FaultInjector:
    """Base injector: one armed :class:`FaultSpec` plus its trigger."""

    site: str = ""

    def __init__(self, spec: FaultSpec):
        self.spec = spec
        self.trigger = FaultTrigger(spec)

    @property
    def fires(self) -> int:
        """How many times this fault has actually been injected."""
        return self.trigger.fires

    def arm(self, platform: "Platform") -> None:
        """Attach the injector to its site on ``platform``."""
        raise NotImplementedError

    def describe(self) -> str:
        """Spec rendering plus fire count, for reports."""
        return f"{self.spec.describe()} (fired {self.fires}x)"


# -- snooper-wrapping faults --------------------------------------------------
class _SnooperProxy(Snooper):
    """Delegates to the wrapped snooper; the injector filters replies."""

    _wraps = "repro.bus.asb.Snooper"

    def __init__(self, inner: Snooper, injector: "_SnooperFault"):
        self.inner = inner
        self.injector = injector
        self.master_name = inner.master_name

    def snoop(self, txn: Transaction) -> SnoopReply:
        return self.injector.filter_snoop(self.inner, txn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<faulty:{self.injector.site} {self.inner!r}>"


class _SnooperFault(FaultInjector):
    """Common arming logic for faults that wrap bus snoopers."""

    def arm(self, platform: "Platform") -> None:
        self.sim = platform.sim
        bus = platform.bus
        wrapped = 0
        for index, snooper in enumerate(bus.snoopers):
            if self.spec.master is None or snooper.master_name == self.spec.master:
                bus.snoopers[index] = _SnooperProxy(snooper, self)
                wrapped += 1
        if not wrapped:
            raise ConfigError(
                f"{self.site}: no snooper named {self.spec.master!r} on the bus"
            )

    def _context(self, inner: Snooper, txn: Transaction) -> dict:
        controller = getattr(inner, "controller", None)
        base = controller.geom.line_base(txn.addr) if controller is not None else None
        return dict(
            master=inner.master_name, addr=txn.addr, line_base=base, op=txn.op.value
        )

    def filter_snoop(self, inner: Snooper, txn: Transaction) -> SnoopReply:
        raise NotImplementedError


class DropDrainFault(_SnooperFault):
    """ARTRY whose drain never signals completion (lost push)."""

    site = "drain.drop"

    def filter_snoop(self, inner: Snooper, txn: Transaction) -> SnoopReply:
        reply = inner.snoop(txn)
        if reply.action is SnoopAction.RETRY and self.trigger.should_fire(
            **self._context(inner, txn)
        ):
            # The snooper still drains (its own completion fires), but
            # the master observes a completion that never comes.
            return SnoopReply(SnoopAction.RETRY, completion=self.sim.event())
        return reply


class DelayDrainFault(_SnooperFault):
    """ARTRY whose completion signal lands ``delay_ns`` late."""

    site = "drain.delay"

    def filter_snoop(self, inner: Snooper, txn: Transaction) -> SnoopReply:
        reply = inner.snoop(txn)
        if reply.action is SnoopAction.RETRY and self.trigger.should_fire(
            **self._context(inner, txn)
        ):
            late = self.sim.event()
            delay = self.spec.delay_ns

            def relay(_event):
                timer = Timeout(self.sim, delay)
                timer.add_callback(lambda _t: late.succeed())

            reply.completion.add_callback(relay)
            return SnoopReply(SnoopAction.RETRY, completion=late)
        return reply


class SilentSnoopFault(_SnooperFault):
    """The snooper misses the address compare: OK despite a (dirty) hit."""

    site = "snoop.silent"

    def filter_snoop(self, inner: Snooper, txn: Transaction) -> SnoopReply:
        if self.trigger.should_fire(**self._context(inner, txn)):
            # The inner snooper is not consulted at all: no state
            # transition, no drain, no shared signal — the fill reads
            # whatever memory holds.
            return SnoopReply.OK
        return inner.snoop(txn)


class RetryStormFault(_SnooperFault):
    """ARTRY with an instantly-satisfied completion, every time."""

    site = "retry.storm"

    def filter_snoop(self, inner: Snooper, txn: Transaction) -> SnoopReply:
        if self.trigger.should_fire(**self._context(inner, txn)):
            completion = self.sim.event()
            completion.succeed()
            return SnoopReply(SnoopAction.RETRY, completion=completion)
        return inner.snoop(txn)


# -- nFIQ faults --------------------------------------------------------------
class _FaultyFiqLine:
    """Proxy in front of an :class:`InterruptLine`; filters assertions."""

    _wraps = "repro.cpu.interrupts.InterruptLine"

    def __init__(self, inner, injector: "_FiqFault", logic):
        self._inner = inner
        self._injector = injector
        self._logic = logic

    def assert_line(self) -> None:
        self._injector.filter_assert(self._inner, self._logic)

    def deassert(self) -> None:
        self._inner.deassert()

    def wait(self):
        return self._inner.wait()

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _FiqFault(FaultInjector):
    def arm(self, platform: "Platform") -> None:
        self.sim = platform.sim
        armed = 0
        for logic in platform.snoop_logics:
            if logic is None:
                continue
            if self.spec.master is None or logic.master_name == self.spec.master:
                logic.fiq = _FaultyFiqLine(logic.fiq, self, logic)
                armed += 1
        if not armed:
            raise ConfigError(
                f"{self.site}: no snoop logic named {self.spec.master!r}"
            )

    def filter_assert(self, inner, logic) -> None:
        raise NotImplementedError


class LostFiqFault(_FiqFault):
    """The nFIQ assertion never reaches the core."""

    site = "fiq.lose"

    def filter_assert(self, inner, logic) -> None:
        if self.trigger.should_fire(master=logic.master_name):
            return
        inner.assert_line()


class DeferredFiqFault(_FiqFault):
    """The nFIQ assertion lands ``delay_ns`` late."""

    site = "fiq.delay"

    def filter_assert(self, inner, logic) -> None:
        if self.trigger.should_fire(master=logic.master_name):
            timer = Timeout(self.sim, self.spec.delay_ns)

            def deliver(_event):
                # Suppress the late assertion if the backlog drained in
                # the meantime (a real level-sensitive line would be low).
                if logic.pending:
                    inner.assert_line()

            timer.add_callback(deliver)
            return
        inner.assert_line()


# -- TAG CAM fault ------------------------------------------------------------
class StaleCamFault(FaultInjector):
    """Evictions leave a stale tag behind in the snoop logic's CAM."""

    site = "cam.stale"

    def arm(self, platform: "Platform") -> None:
        armed = 0
        for logic in platform.snoop_logics:
            if logic is None:
                continue
            if self.spec.master is None or logic.master_name == self.spec.master:
                self._wrap(logic)
                armed += 1
        if not armed:
            raise ConfigError(
                f"{self.site}: no snoop logic named {self.spec.master!r}"
            )

    def _wrap(self, logic) -> None:
        listeners = logic.controller.remove_listeners
        original = logic._on_remove
        index = listeners.index(original)

        def sticky_remove(line_addr: int) -> None:
            original(line_addr)
            if self.trigger.should_fire(
                master=logic.master_name, addr=line_addr, line_base=line_addr
            ):
                # The CAM failed to clear the tag: the line is gone from
                # the cache but still answers snoop compares.
                logic._cam.add(line_addr)

        listeners[index] = sticky_remove


# -- arbiter fault ------------------------------------------------------------
class StarvationFault(FaultInjector):
    """The arbiter never grants the target master's requests."""

    site = "arbiter.starve"

    def __init__(self, spec: FaultSpec):
        super().__init__(spec)
        #: requests absorbed by the fault: (master, grant-event) pairs
        self.starved: List[Tuple[str, object]] = []

    def arm(self, platform: "Platform") -> None:
        if self.spec.master is None:
            raise ConfigError("arbiter.starve needs an explicit master")
        arbiter = platform.bus.arbiter
        # A banked interconnect (the directory fabric) exposes its
        # per-home arbiters as `.banks`; the fault must starve the
        # target on every bank or a transaction to an unpatched home
        # would slip through.  A single snoopy arbiter is the
        # degenerate one-bank case.
        for bank in getattr(arbiter, "banks", (arbiter,)):
            self._patch_select(bank)

    def _patch_select(self, arbiter) -> None:
        original = arbiter._select

        def starving_select():
            while True:
                choice = original()
                if choice is None:
                    return None
                master, grant = choice
                if self.trigger.should_fire(master=master):
                    self.starved.append((master, grant))
                    continue
                return choice

        arbiter._select = starving_select


# -- memory-controller fault --------------------------------------------------
class _SlowController:
    """Delegating proxy that stretches faulted data phases."""

    _wraps = "repro.mem.controller.MemoryController"

    def __init__(self, inner, injector: "MemDelayFault"):
        self._inner = inner
        self._injector = injector

    def access(self, txn: Transaction):
        data, cycles = self._inner.access(txn)
        if self._injector.trigger.should_fire(
            master=txn.master, addr=txn.addr, op=txn.op.value
        ):
            cycles += self._injector.spec.extra_cycles
        return data, cycles

    def supply_cycles(self, words: int) -> int:
        return self._inner.supply_cycles(words)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class MemDelayFault(FaultInjector):
    """Memory-controller response delays (slow DRAM, refresh stalls)."""

    site = "mem.delay"

    def arm(self, platform: "Platform") -> None:
        if self.spec.extra_cycles <= 0:
            raise ConfigError("mem.delay needs extra_cycles >= 1")
        platform.bus.controller = _SlowController(platform.bus.controller, self)


#: every registered fault class, by site name
SITES: Dict[str, Type[FaultInjector]] = {
    cls.site: cls
    for cls in (
        DropDrainFault,
        DelayDrainFault,
        SilentSnoopFault,
        RetryStormFault,
        LostFiqFault,
        DeferredFiqFault,
        StaleCamFault,
        StarvationFault,
        MemDelayFault,
    )
}


class FaultEngine:
    """All armed injectors of one platform, in spec order."""

    def __init__(self, platform: "Platform", specs):
        self.injectors: List[FaultInjector] = []
        for spec in specs:
            cls = SITES.get(spec.site)
            if cls is None:
                raise ConfigError(
                    f"unknown fault site {spec.site!r}; registered sites: "
                    + ", ".join(sorted(SITES))
                )
            injector = cls(spec)
            injector.arm(platform)
            self.injectors.append(injector)

    @property
    def total_fires(self) -> int:
        """Injections performed across all armed faults."""
        return sum(injector.fires for injector in self.injectors)

    def summary(self) -> List[str]:
        """One line per armed fault, for reports and dumps."""
        return [injector.describe() for injector in self.injectors]


def apply_faults(platform: "Platform", specs) -> Optional[FaultEngine]:
    """Arm ``specs`` against ``platform``; None when there are none."""
    specs = tuple(specs)
    if not specs:
        return None
    return FaultEngine(platform, specs)

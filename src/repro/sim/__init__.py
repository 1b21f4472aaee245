"""Event-driven simulation kernel: scheduler, processes, clocks, tracing."""

from .clock import NS_PER_TICK, Clock, mhz_to_period_ns
from .kernel import AllOf, Event, Process, Simulator, Timeout
from .resources import Mutex
from .tracing import NullTracer, Stats, TraceRecord, Tracer

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "Clock",
    "NS_PER_TICK",
    "mhz_to_period_ns",
    "Tracer",
    "NullTracer",
    "TraceRecord",
    "Stats",
    "Mutex",
]

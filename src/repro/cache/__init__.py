"""Cache subsystem: arrays, lines, protocols, the snooping controller."""

from .array import CacheArray, CacheGeometry
from .controller import CacheController
from .line import CacheLine, State
from .protocols import (
    PROTOCOLS,
    CoherenceProtocol,
    MEIProtocol,
    MESIProtocol,
    MOESIProtocol,
    MSIProtocol,
    SIProtocol,
    SnoopOp,
    SnoopOutcome,
    WriteAction,
    make_protocol,
)

__all__ = [
    "CacheArray",
    "CacheGeometry",
    "CacheController",
    "CacheLine",
    "State",
    "CoherenceProtocol",
    "SnoopOp",
    "SnoopOutcome",
    "WriteAction",
    "MEIProtocol",
    "MSIProtocol",
    "MESIProtocol",
    "MOESIProtocol",
    "SIProtocol",
    "PROTOCOLS",
    "make_protocol",
]

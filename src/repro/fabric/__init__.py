"""Coherence fabrics: interconnect organisations behind one contract.

See :mod:`repro.fabric.interfaces` for the contract and
``docs/fabrics.md`` for semantics and paper-faithfulness notes.
Importing this package registers the three shipped fabrics.
"""

from .interfaces import IFabric
from .registry import (
    fabric_fingerprint,
    fabric_names,
    get_fabric,
    make_fabric,
    register_fabric,
)
from .atomic import AtomicFabric
from .split import SplitBus
from .directory import BankedArbiter, DirectoryFabric

__all__ = [
    "IFabric",
    "register_fabric",
    "get_fabric",
    "fabric_names",
    "make_fabric",
    "fabric_fingerprint",
    "AtomicFabric",
    "SplitBus",
    "BankedArbiter",
    "DirectoryFabric",
]

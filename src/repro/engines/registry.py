"""Engine registry: name -> engine singleton.

The registry is the engine vocabulary: a name is valid exactly when
an engine is registered under it.  The ``engine-contract`` lint rule
checks that every registered engine implements the full surface.
"""

from __future__ import annotations

from typing import Dict, List, Type

from ..errors import ConfigError
from .interfaces import ISimEngine

__all__ = [
    "register_engine",
    "get_engine",
    "engine_names",
    "engine_fingerprint",
]

_REGISTRY: Dict[str, ISimEngine] = {}


def register_engine(cls: Type[ISimEngine]) -> Type[ISimEngine]:
    """Class decorator: instantiate and register one engine."""
    engine = cls()
    if engine.name in _REGISTRY:
        raise ConfigError(f"duplicate engine registration {engine.name!r}")
    _REGISTRY[engine.name] = engine
    return cls


def get_engine(name: str) -> ISimEngine:
    """The engine registered under ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown engine {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def engine_names() -> List[str]:
    """Every registered engine name, in registration order."""
    return list(_REGISTRY)


def engine_fingerprint(name: str) -> Dict[str, object]:
    """Cache-key identity of the engine registered under ``name``."""
    return get_engine(name).fingerprint()

"""Fabric registry: name -> fabric class.

The *vocabulary* of fabric names belongs to the model side
(``repro.core.platform.FABRIC_NAMES``) so configurations validate
without importing this package; the registry here must cover exactly
that vocabulary, which the ``fabric-contract`` lint rule checks in CI.

Unlike engines (stateless singletons), fabrics are per-platform
objects: the registry maps names to *classes* and
:func:`make_fabric` builds one instance per platform.
"""

from __future__ import annotations

from typing import Dict, List, Type

from ..errors import ConfigError
from .interfaces import IFabric

__all__ = [
    "register_fabric",
    "get_fabric",
    "fabric_names",
    "make_fabric",
    "fabric_fingerprint",
]

_REGISTRY: Dict[str, Type[IFabric]] = {}


def register_fabric(cls: Type[IFabric]) -> Type[IFabric]:
    """Class decorator: register one fabric class under ``cls.name``."""
    name = getattr(cls, "name", None)
    if not isinstance(name, str) or not name or name == "?":
        raise ConfigError(f"fabric class {cls.__name__} lacks a usable name")
    if name in _REGISTRY:
        raise ConfigError(f"duplicate fabric registration {name!r}")
    _REGISTRY[name] = cls
    return cls


def get_fabric(name: str) -> Type[IFabric]:
    """The fabric class registered under ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown fabric {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def fabric_names() -> List[str]:
    """Every registered fabric name, in registration order."""
    return list(_REGISTRY)


def make_fabric(
    name: str,
    sim,
    clock,
    controller,
    *,
    arbiter_factory,
    tracer=None,
    stats=None,
    max_retries=1000,
) -> IFabric:
    """Build one fabric instance for one platform."""
    return get_fabric(name).build(
        sim,
        clock,
        controller,
        arbiter_factory=arbiter_factory,
        tracer=tracer,
        stats=stats,
        max_retries=max_retries,
    )


def fabric_fingerprint(name: str) -> Dict[str, object]:
    """Bench-baseline identity of the fabric registered under ``name``."""
    return get_fabric(name).fingerprint()

"""Service configuration: one frozen dataclass, JSON-round-trippable."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional

from ..errors import ConfigError

__all__ = ["ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Everything one service instance needs.

    ``data_dir`` owns all persistent state: the journal
    (``journal.jsonl``), the sharded result cache (``cache/`` unless
    ``cache_dir`` points elsewhere — e.g. at a cache shared with local
    sweep runs), and the announce file (``service.json``, written after
    bind so wrappers learn the bound port when ``port=0``).

    Robustness knobs mirror the pool they configure: ``timeout_s`` is
    the per-attempt deadline, ``max_attempts`` bounds requeues of hung
    or crashed jobs, ``backoff_s``/``backoff_cap_s`` seed the
    deterministic capped exponential requeue delay.  ``max_queue``
    bounds *admitted-but-not-running* jobs — beyond it submissions are
    shed with ``429`` — and ``stall_threshold_s`` is the service
    watchdog's heartbeat limit for a busy worker.

    ``allow_probe`` gates the diagnostic ``probe`` job kind (sleep /
    crash / fail on demand); it exists for chaos drills and the smoke
    benchmarks, never for production traffic, so it is off by default
    and rejected at admission when disabled.
    """

    host: str = "127.0.0.1"
    port: int = 0
    data_dir: str = "service-data"
    cache_dir: Optional[str] = None
    workers: int = 2
    max_queue: int = 64
    timeout_s: Optional[float] = 300.0
    max_attempts: int = 2
    backoff_s: float = 0.05
    backoff_cap_s: float = 2.0
    stall_threshold_s: float = 30.0
    watchdog_interval_s: float = 1.0
    #: long-poll ``?wait=`` ceiling per request
    max_wait_s: float = 30.0
    allow_probe: bool = False

    def __post_init__(self):
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.max_queue < 1:
            raise ConfigError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )

    def with_(self, **changes) -> "ServiceConfig":
        """A modified copy."""
        return replace(self, **changes)

    @property
    def resolved_cache_dir(self) -> str:
        """The result-cache root (inside ``data_dir`` by default)."""
        return self.cache_dir or os.path.join(self.data_dir, "cache")

    @property
    def journal_path(self) -> str:
        return os.path.join(self.data_dir, "journal.jsonl")

    @property
    def announce_path(self) -> str:
        return os.path.join(self.data_dir, "service.json")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (for /stats and the announce file)."""
        return {
            "host": self.host,
            "port": self.port,
            "data_dir": self.data_dir,
            "cache_dir": self.resolved_cache_dir,
            "workers": self.workers,
            "max_queue": self.max_queue,
            "timeout_s": self.timeout_s,
            "max_attempts": self.max_attempts,
            "backoff_s": self.backoff_s,
            "backoff_cap_s": self.backoff_cap_s,
            "stall_threshold_s": self.stall_threshold_s,
            "allow_probe": self.allow_probe,
        }

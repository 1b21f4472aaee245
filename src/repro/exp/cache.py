"""On-disk result cache, content-addressed by payload + version + engine.

Every cache entry is one JSON file ``<root>/<kk>/<sha256>.json`` —
**sharded** by the first two hex digits ``kk`` of its key, so a
campaign-scale cache (hundreds of thousands of entries) never turns
one directory into a linear-scan bottleneck, and so the campaign
service can spread shards across stores later without rehashing.  The
key is the SHA-256 of the canonical JSON encoding of::

    {"version": <repro.__version__>,
     "engine": {"name": <engine>, "version": <engine version>},
     "job": <job payload>}

Including the package version means any release invalidates every
cached result wholesale — the simulator's timing model may have
changed, and a stale hit would silently corrupt regenerated figures.
The engine fragment is the fingerprint of the exact engine, which
runs every cached job: bumping its version invalidates its results,
and an entry keyed under any other engine (the timing-free batch
engine, whose result would silently poison a latency figure) can never
be served in its place (``tests/exp/test_cache.py`` keeps it that
way).  Changing any field of the job spec changes the payload and
therefore the key, so distinct configurations can never collide.

Writes go through a temp file + :func:`os.replace` so a crashed or
concurrent run never leaves a torn entry.  Reads *validate*: an entry
that fails to JSON-decode or does not look like a cache entry (a dict
with ``version``/``job``/``result`` keys) is **quarantined** — moved to
``<root>/corrupt/<kk>/`` (the quarantine respects the shard layout)
for post-mortem — and reported as a miss, so one torn or truncated
file costs one re-simulation, never a crash and never a poisoned
figure.

Caches written before the shard layout stored entries flat at
``<root>/<sha256>.json``; those migrate transparently: a read that
misses in the shard checks the legacy flat path and relocates the file
(atomic :func:`os.replace`) into its shard before validating it, and
:meth:`ResultCache.migrate` sweeps everything in one pass.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Dict, Optional

__all__ = [
    "DEFAULT_ENGINE",
    "SHARD_PREFIX_LEN",
    "ResultCache",
    "canonical_payload",
    "content_key",
    "engine_tag",
]


def _package_version() -> str:
    # Imported lazily: repro/__init__ imports the analysis layer, which
    # imports this module, before __version__ is bound.
    from .. import __version__

    return __version__


#: the engine sweep jobs run under when none is named (the event kernel)
DEFAULT_ENGINE = "exact"


def engine_tag(engine: Optional[str] = None) -> Dict[str, Any]:
    """The ``{"name", "version"}`` key fragment for ``engine``.

    Read from the engine's fingerprint so a bumped engine version
    invalidates that engine's cached results and nobody else's.  The
    ``native`` flag is deliberately excluded: a compiled build of the
    same engine version is semantically identical, so its results are
    interchangeable with the pure-Python ones.
    """
    from ..engines import get_engine  # lazy: avoids an import cycle

    fp = get_engine(engine or DEFAULT_ENGINE).fingerprint()
    return {"name": fp["name"], "version": fp["version"]}


def canonical_payload(payload: Dict[str, Any]) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _key(version: str, engine: Dict[str, Any], payload: Dict[str, Any]) -> str:
    blob = canonical_payload(
        {"version": version, "engine": engine, "job": payload}
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def content_key(payload: Dict[str, Any], version: Optional[str] = None) -> str:
    """SHA-256 cache key of a job payload under ``version``."""
    if version is None:
        version = _package_version()
    return _key(version, engine_tag(), payload)


#: number of hex digits of the key that name an entry's shard directory
SHARD_PREFIX_LEN = 2


class ResultCache:
    """A sharded directory of content-addressed JSON result files."""

    def __init__(self, root: str, version: Optional[str] = None):
        self.root = root
        self.version = version if version is not None else _package_version()
        #: the engine this cache's keys are scoped to
        self.engine = engine_tag()
        #: entries moved to <root>/corrupt/ by this instance
        self.quarantined = 0
        #: legacy flat entries relocated into shards by this instance
        self.migrated = 0
        os.makedirs(self.root, exist_ok=True)

    @staticmethod
    def shard_of(key: str) -> str:
        """The shard directory name (2 hex digits) owning ``key``."""
        return key[:SHARD_PREFIX_LEN]

    def key_for(self, payload: Dict[str, Any]) -> str:
        """The cache key of ``payload`` under this cache's version+engine."""
        return _key(self.version, self.engine, payload)

    def path_for(self, key: str) -> str:
        """Filesystem path of the (sharded) entry for ``key``.

        The shard directory is created on demand so callers may write
        to the returned path directly.
        """
        path = self._entry_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return path

    def _entry_path(self, key: str) -> str:
        """:meth:`path_for` without creating the shard (reads only)."""
        return os.path.join(self.root, self.shard_of(key), f"{key}.json")

    def _legacy_path_for(self, key: str) -> str:
        """Pre-shard flat location of ``key`` (migration source only)."""
        return os.path.join(self.root, f"{key}.json")

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached result for ``key``, or None on miss.

        A miss creates nothing on disk.  A present-but-unreadable entry
        (truncated write, disk hiccup, manual tampering) is quarantined
        rather than crashing the sweep or silently masking the damage:
        the file moves to ``<root>/corrupt/<shard>/`` and the caller
        re-simulates.
        """
        path = self._entry_path(key)
        if not os.path.exists(path):
            legacy = self._legacy_path_for(key)
            if os.path.exists(legacy):
                # Transparent migration: relocate the flat entry into
                # its shard, then validate it like any other read.
                try:
                    os.replace(legacy, self.path_for(key))
                    self.migrated += 1
                except OSError:
                    return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = handle.read()
        except OSError:
            return None  # plain miss: nothing on disk for this key
        try:
            entry = json.loads(raw)
        except ValueError:
            self._quarantine(path)
            return None
        if not self._valid_entry(entry):
            self._quarantine(path)
            return None
        return entry["result"]

    @staticmethod
    def _valid_entry(entry: Any) -> bool:
        """Schema check: the shape :meth:`put` writes, nothing less."""
        return (
            isinstance(entry, dict)
            and "result" in entry
            and "job" in entry
            and isinstance(entry.get("version"), str)
            and isinstance(entry.get("engine"), dict)
        )

    def _quarantine(self, path: str) -> None:
        """Move a corrupt entry to ``<root>/corrupt/<shard>/`` (best effort).

        The quarantine mirrors the shard layout so a forensic sweep of
        one shard's corruption never has to scan every other shard's
        casualties.
        """
        key = os.path.basename(path).rsplit(".", 1)[0]
        corrupt_dir = os.path.join(self.root, "corrupt", self.shard_of(key))
        try:
            os.makedirs(corrupt_dir, exist_ok=True)
            os.replace(path, os.path.join(corrupt_dir, os.path.basename(path)))
        except OSError:
            # Last resort: drop it so the next run does not trip again.
            try:
                os.unlink(path)
            except OSError:
                pass
        self.quarantined += 1

    def put(self, key: str, payload: Dict[str, Any], result: Dict[str, Any]) -> None:
        """Store ``result`` for ``key`` atomically.

        The payload is stored alongside the result so entries stay
        inspectable/debuggable with plain ``cat``.
        """
        entry = {
            "version": self.version,
            "engine": self.engine,
            "job": payload,
            "result": result,
        }
        path = self.path_for(key)  # creates the shard directory
        fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(entry, handle, indent=1, sort_keys=True)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    def migrate(self) -> int:
        """Relocate every legacy flat entry into its shard; count moved.

        Reads already migrate lazily; this sweeps the whole root in one
        pass (used at service startup so a warmed pre-shard cache is
        fully available before traffic arrives).
        """
        moved = 0
        for name in sorted(os.listdir(self.root)):
            if not name.endswith(".json"):
                continue
            key = name.rsplit(".", 1)[0]
            target = self.path_for(key)
            try:
                os.replace(os.path.join(self.root, name), target)
                moved += 1
            except OSError:
                continue
        self.migrated += moved
        return moved

    def _shard_dirs(self):
        """Existing shard directories (never ``corrupt/``)."""
        for name in sorted(os.listdir(self.root)):
            path = os.path.join(self.root, name)
            if (
                len(name) == SHARD_PREFIX_LEN
                and os.path.isdir(path)
                and name != "corrupt"
            ):
                yield path

    def __len__(self) -> int:
        """Number of entries currently on disk (all shards + legacy)."""
        count = sum(1 for n in os.listdir(self.root) if n.endswith(".json"))
        for shard in self._shard_dirs():
            count += sum(1 for n in os.listdir(shard) if n.endswith(".json"))
        return count

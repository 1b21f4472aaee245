"""Unit tests for the content-addressed result cache."""

import json
import os

import pytest

from repro.exp import MicrobenchJob, ResultCache, SequenceJob, content_key, job_from_payload
from repro.workloads import MicrobenchSpec


@pytest.fixture
def spec():
    return MicrobenchSpec("wcs", "proposed", lines=2, exec_time=1, iterations=2)


class TestContentKey:
    def test_stable_across_calls(self, spec):
        payload = MicrobenchJob(spec).payload()
        assert content_key(payload) == content_key(payload)

    def test_spec_change_changes_key(self, spec):
        a = MicrobenchJob(spec).payload()
        b = MicrobenchJob(spec.with_(lines=4)).payload()
        assert content_key(a) != content_key(b)

    def test_override_change_changes_key(self, spec):
        a = MicrobenchJob(spec).payload()
        b = MicrobenchJob(spec, miss_penalty=96).payload()
        c = MicrobenchJob(spec, arbitration="round-robin").payload()
        assert len({content_key(p) for p in (a, b, c)}) == 3

    def test_version_bump_changes_key(self, spec):
        payload = MicrobenchJob(spec).payload()
        assert content_key(payload, "1.0.0") != content_key(payload, "1.0.1")

    def test_dict_order_is_irrelevant(self):
        a = {"x": 1, "y": 2}
        b = {"y": 2, "x": 1}
        assert content_key(a, "v") == content_key(b, "v")

    def test_keys_are_pinned(self):
        # Cached results and service job ids are addressed by these
        # keys: a change to the key layout or the exact engine's
        # identity would orphan every stored result.
        from repro.engines import engine_fingerprint, kernel_is_native

        assert content_key({"kind": "pin"}, "v") == (
            "c0ad53ce4d90047158b360b6a23ff84de1dd58a12359d0fcd0598dd91b53594d"
        )
        assert engine_fingerprint("exact") == {
            "name": "exact", "version": 1, "native": kernel_is_native(),
        }


class TestEngineScoping:
    """Engine-tagged keys: the cache-poisoning regression suite.

    A result simulated under one engine must never be served to a
    sweep running under another — the batch engine matches the exact
    engine's counters but carries no timing, so a cross-engine hit
    would silently corrupt latency figures.
    """

    def test_engine_changes_key(self, spec):
        payload = MicrobenchJob(spec).payload()
        assert content_key(payload, "v", engine="exact") != content_key(
            payload, "v", engine="batch"
        )

    def test_default_engine_is_exact(self, spec):
        payload = MicrobenchJob(spec).payload()
        assert content_key(payload, "v") == content_key(
            payload, "v", engine="exact"
        )

    def test_engine_version_is_in_the_key(self, spec):
        # The key must move when an engine's version is bumped, not
        # just when its name changes.
        from repro.exp.cache import engine_tag
        from repro.engines import BatchEngine

        payload = MicrobenchJob(spec).payload()
        before = content_key(payload, "v", engine="batch")
        original = BatchEngine.version
        try:
            BatchEngine.version = original + 1
            assert engine_tag("batch")["version"] == original + 1
            assert content_key(payload, "v", engine="batch") != before
        finally:
            BatchEngine.version = original

    def test_cross_engine_hit_is_impossible(self, tmp_path, spec):
        # Poisoning attempt: store a (stats-only) batch result, then
        # look the same job up from an exact-engine cache on the same
        # directory.  The engine-scoped key must miss.
        payload = MicrobenchJob(spec).payload()
        batch_cache = ResultCache(str(tmp_path), version="v", engine="batch")
        batch_cache.put(
            batch_cache.key_for(payload), payload, {"hits": 10}
        )
        exact_cache = ResultCache(str(tmp_path), version="v", engine="exact")
        assert exact_cache.get(exact_cache.key_for(payload)) is None
        # ...and the batch cache still sees its own entry.
        assert batch_cache.get(batch_cache.key_for(payload)) == {"hits": 10}

    def test_entry_records_its_engine(self, tmp_path, spec):
        payload = MicrobenchJob(spec).payload()
        cache = ResultCache(str(tmp_path), version="v", engine="batch")
        key = cache.key_for(payload)
        cache.put(key, payload, {"hits": 1})
        with open(cache.path_for(key)) as handle:
            entry = json.load(handle)
        assert entry["engine"]["name"] == "batch"
        assert isinstance(entry["engine"]["version"], int)

    def test_legacy_unscoped_entry_is_quarantined(self, tmp_path, spec):
        # A pre-engine-tag entry (no "engine" field) planted at the
        # current key is treated as corrupt, not served.
        payload = MicrobenchJob(spec).payload()
        cache = ResultCache(str(tmp_path), version="v")
        key = cache.key_for(payload)
        with open(cache.path_for(key), "w") as handle:
            json.dump(
                {"version": "v", "job": payload, "result": {"x": 1}}, handle
            )
        assert cache.get(key) is None
        assert cache.quarantined == 1


class TestResultCache:
    def test_miss_then_hit(self, tmp_path, spec):
        cache = ResultCache(str(tmp_path))
        payload = MicrobenchJob(spec).payload()
        key = cache.key_for(payload)
        assert cache.get(key) is None
        cache.put(key, payload, {"elapsed_ns": 123})
        assert cache.get(key) == {"elapsed_ns": 123}
        assert len(cache) == 1

    def test_version_bump_invalidates(self, tmp_path, spec):
        payload = MicrobenchJob(spec).payload()
        old = ResultCache(str(tmp_path), version="1.0.0")
        old.put(old.key_for(payload), payload, {"elapsed_ns": 1})
        new = ResultCache(str(tmp_path), version="1.0.1")
        assert new.get(new.key_for(payload)) is None

    def test_spec_change_misses(self, tmp_path, spec):
        cache = ResultCache(str(tmp_path))
        payload = MicrobenchJob(spec).payload()
        cache.put(cache.key_for(payload), payload, {"elapsed_ns": 1})
        changed = MicrobenchJob(spec.with_(iterations=3)).payload()
        assert cache.get(cache.key_for(changed)) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path, spec):
        cache = ResultCache(str(tmp_path))
        payload = MicrobenchJob(spec).payload()
        key = cache.key_for(payload)
        with open(cache.path_for(key), "w") as handle:
            handle.write("{not json")
        assert cache.get(key) is None

    def test_corrupt_entry_is_quarantined(self, tmp_path, spec):
        cache = ResultCache(str(tmp_path))
        payload = MicrobenchJob(spec).payload()
        key = cache.key_for(payload)
        with open(cache.path_for(key), "w") as handle:
            handle.write("{not json")
        assert cache.get(key) is None
        assert cache.quarantined == 1
        assert not os.path.exists(cache.path_for(key))
        quarantined = os.path.join(
            str(tmp_path), "corrupt", key[:2], f"{key}.json"
        )
        assert os.path.exists(quarantined)
        # Quarantined, the entry is a plain miss and can be overwritten.
        cache.put(key, payload, {"elapsed_ns": 5})
        assert cache.get(key) == {"elapsed_ns": 5}

    def test_truncated_entry_is_quarantined(self, tmp_path, spec):
        cache = ResultCache(str(tmp_path))
        payload = MicrobenchJob(spec).payload()
        key = cache.key_for(payload)
        cache.put(key, payload, {"elapsed_ns": 7})
        with open(cache.path_for(key)) as handle:
            text = handle.read()
        with open(cache.path_for(key), "w") as handle:
            handle.write(text[: len(text) // 2])  # torn write
        assert cache.get(key) is None
        assert cache.quarantined == 1

    def test_wrong_schema_entry_is_quarantined(self, tmp_path, spec):
        cache = ResultCache(str(tmp_path))
        payload = MicrobenchJob(spec).payload()
        key = cache.key_for(payload)
        with open(cache.path_for(key), "w") as handle:
            json.dump({"something": "else"}, handle)  # valid JSON, wrong shape
        assert cache.get(key) is None
        assert cache.quarantined == 1

    def test_missing_entry_is_not_quarantined(self, tmp_path, spec):
        cache = ResultCache(str(tmp_path))
        key = cache.key_for(MicrobenchJob(spec).payload())
        assert cache.get(key) is None
        assert cache.quarantined == 0

    def test_entries_are_inspectable_json(self, tmp_path, spec):
        cache = ResultCache(str(tmp_path))
        payload = MicrobenchJob(spec).payload()
        key = cache.key_for(payload)
        cache.put(key, payload, {"elapsed_ns": 42})
        with open(cache.path_for(key)) as handle:
            entry = json.load(handle)
        assert entry["result"] == {"elapsed_ns": 42}
        assert entry["job"] == payload

    def test_no_temp_files_left_behind(self, tmp_path, spec):
        cache = ResultCache(str(tmp_path))
        payload = MicrobenchJob(spec).payload()
        cache.put(cache.key_for(payload), payload, {"elapsed_ns": 1})
        assert not [n for n in os.listdir(str(tmp_path)) if n.endswith(".tmp")]


class TestJobPayloadRoundTrip:
    def test_microbench_round_trips(self, spec):
        job = MicrobenchJob(spec, miss_penalty=48, arbitration="round-robin")
        assert job_from_payload(job.payload()) == job

    def test_sequence_round_trips(self):
        job = SequenceJob(("MESI", "MEI"), wrapped=False)
        assert job_from_payload(job.payload()) == job

    def test_payload_survives_json(self, spec):
        job = MicrobenchJob(spec, arm_interrupt_entry_cycles=8)
        payload = json.loads(json.dumps(job.payload()))
        assert job_from_payload(payload) == job


def _payload(spec, **overrides):
    """A microbench payload, optionally varied (distinct keys)."""
    return MicrobenchJob(spec.with_(**overrides) if overrides else spec).payload()


class TestSharding:
    """Entries live in <root>/<kk>/ shards; legacy flat caches migrate."""

    def test_entry_path_is_sharded(self, tmp_path, spec):
        cache = ResultCache(str(tmp_path))
        key = cache.key_for(_payload(spec))
        path = cache.path_for(key)
        assert path == os.path.join(str(tmp_path), key[:2], f"{key}.json")

    def test_miss_creates_no_directory(self, tmp_path, spec):
        root = tmp_path / "cache"
        cache = ResultCache(str(root))
        assert cache.get(cache.key_for(_payload(spec))) is None
        assert os.listdir(str(root)) == []

    def test_put_writes_into_the_shard(self, tmp_path, spec):
        cache = ResultCache(str(tmp_path))
        key = cache.key_for(_payload(spec))
        cache.put(key, _payload(spec), {"x": 1})
        assert os.path.exists(
            os.path.join(str(tmp_path), key[:2], f"{key}.json")
        )
        assert not os.path.exists(os.path.join(str(tmp_path), f"{key}.json"))

    def test_legacy_flat_entry_migrates_on_read(self, tmp_path, spec):
        cache = ResultCache(str(tmp_path))
        key = cache.key_for(_payload(spec))
        # Write the entry the pre-shard way: flat at the root.
        flat = os.path.join(str(tmp_path), f"{key}.json")
        entry = {
            "version": cache.version,
            "engine": cache.engine,
            "job": _payload(spec),
            "result": {"migrated": True},
        }
        with open(flat, "w") as handle:
            json.dump(entry, handle)
        assert cache.get(key) == {"migrated": True}
        assert cache.migrated == 1
        assert not os.path.exists(flat)
        assert os.path.exists(
            os.path.join(str(tmp_path), key[:2], f"{key}.json")
        )
        # And the migrated entry keeps answering.
        assert cache.get(key) == {"migrated": True}
        assert cache.migrated == 1

    def test_migrate_sweeps_every_flat_entry(self, tmp_path, spec):
        cache = ResultCache(str(tmp_path))
        keys = []
        for i in range(5):
            payload = _payload(spec, iterations=i + 1)
            key = cache.key_for(payload)
            keys.append(key)
            entry = {
                "version": cache.version,
                "engine": cache.engine,
                "job": payload,
                "result": {"i": i},
            }
            with open(os.path.join(str(tmp_path), f"{key}.json"), "w") as f:
                json.dump(entry, f)
        assert cache.migrate() == 5
        assert cache.migrated == 5
        for i, key in enumerate(keys):
            assert cache.get(key) == {"i": i}
        # Nothing flat remains; len counts the sharded entries.
        assert not [
            n for n in os.listdir(str(tmp_path)) if n.endswith(".json")
        ]
        assert len(cache) == 5

    def test_len_counts_flat_and_sharded(self, tmp_path, spec):
        cache = ResultCache(str(tmp_path))
        sharded_key = cache.key_for(_payload(spec))
        cache.put(sharded_key, _payload(spec), {"a": 1})
        flat_key = cache.key_for(_payload(spec, iterations=99))
        with open(os.path.join(str(tmp_path), f"{flat_key}.json"), "w") as f:
            json.dump({"version": cache.version, "engine": cache.engine,
                       "job": {}, "result": {}}, f)
        assert len(cache) == 2

    def test_corrupt_shard_entry_quarantines_into_shard(self, tmp_path, spec):
        cache = ResultCache(str(tmp_path))
        key = cache.key_for(_payload(spec))
        with open(cache.path_for(key), "w") as handle:
            handle.write("{ torn")
        assert cache.get(key) is None
        assert os.path.exists(
            os.path.join(str(tmp_path), "corrupt", key[:2], f"{key}.json")
        )

    def test_shard_prefix_distributes(self, tmp_path, spec):
        # Distinct payloads land in (typically) distinct shards; the
        # mapping is pure prefix, so it never depends on insert order.
        cache = ResultCache(str(tmp_path))
        shards = set()
        for i in range(16):
            key = cache.key_for(_payload(spec, iterations=i + 1))
            shards.add(ResultCache.shard_of(key))
            assert ResultCache.shard_of(key) == key[:2]
        assert len(shards) > 1

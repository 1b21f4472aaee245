"""Unit tests for tracing and stats."""

from repro.sim import NullTracer, Stats, TraceRecord, Tracer


def emit(tracer, time, channel, source, kind, **fields):
    """Emit as a component call site does: through the cached guard."""
    ch = tracer.channel(channel)
    if ch.enabled:
        ch.emit(time, source, kind, **fields)


class TestTracer:
    def test_records_enabled_channel(self):
        tracer = Tracer(channels=("bus",))
        emit(tracer, 10, "bus", "m0", "grant", addr=0x100)
        assert len(tracer.records) == 1
        assert tracer.records[0].kind == "grant"

    def test_skips_disabled_channel(self):
        tracer = Tracer(channels=("bus",))
        emit(tracer, 10, "cache", "m0", "fill")
        assert len(tracer.records) == 0

    def test_none_channels_records_everything(self):
        tracer = Tracer()
        emit(tracer, 1, "a", "s", "k")
        emit(tracer, 2, "b", "s", "k")
        assert len(tracer.records) == 2

    def test_enable_adds_channel(self):
        tracer = Tracer(channels=())
        tracer.enable("irq")
        emit(tracer, 1, "irq", "s", "k")
        assert len(tracer.records) == 1

    def test_listener_sees_disabled_channels(self):
        tracer = Tracer(channels=())
        seen = []
        tracer.add_listener(seen.append)
        emit(tracer, 5, "mem", "c0", "load", addr=4, value=9)
        assert len(tracer.records) == 0
        assert len(seen) == 1
        assert seen[0].fields["value"] == 9

    def test_capacity_bounds_storage(self):
        tracer = Tracer(capacity=3)
        for i in range(10):
            emit(tracer, i, "x", "s", "k")
        assert len(tracer.records) == 3
        assert tracer.records[0].time == 7

    def test_find_filters(self):
        tracer = Tracer()
        emit(tracer, 1, "bus", "a", "grant")
        emit(tracer, 2, "bus", "a", "complete")
        emit(tracer, 3, "irq", "b", "grant")
        assert len(tracer.find(channel="bus")) == 2
        assert len(tracer.find(kind="grant")) == 2
        assert len(tracer.find(channel="bus", kind="grant")) == 1

    def test_format_is_one_line_per_record(self):
        tracer = Tracer()
        emit(tracer, 1, "bus", "a", "grant", addr=0x2000_0000)
        emit(tracer, 2, "bus", "a", "done")
        text = tracer.format()
        assert len(text.splitlines()) == 2
        assert "0x20000000" in text

    def test_null_tracer_records_nothing(self):
        tracer = NullTracer()
        emit(tracer, 1, "bus", "a", "grant")
        assert len(tracer.records) == 0

    def test_null_tracer_still_feeds_listeners(self):
        tracer = NullTracer()
        seen = []
        tracer.add_listener(seen.append)
        emit(tracer, 1, "bus", "a", "grant")
        assert len(seen) == 1


class TestStats:
    def test_bump_and_get(self):
        stats = Stats()
        stats.bump("x")
        stats.bump("x", 4)
        assert stats.get("x") == 5

    def test_missing_key_is_zero(self):
        assert Stats().get("nope") == 0

    def test_as_dict_snapshot(self):
        stats = Stats()
        stats.bump("a", 2)
        snapshot = stats.as_dict()
        stats.bump("a")
        assert snapshot == {"a": 2}

    def test_merge(self):
        a, b = Stats(), Stats()
        a.bump("k", 1)
        b.bump("k", 2)
        b.bump("other", 3)
        a.merge(b)
        assert a.get("k") == 3
        assert a.get("other") == 3


class TestTraceChannel:
    """The cached per-channel guards used by hot emit call sites."""

    def test_channel_is_cached(self):
        tracer = Tracer(channels=("bus",))
        assert tracer.channel("bus") is tracer.channel("bus")

    def test_guard_reflects_enabled_set(self):
        tracer = Tracer(channels=("bus",))
        assert tracer.channel("bus").enabled
        assert not tracer.channel("cache").enabled

    def test_enable_refreshes_existing_guards(self):
        tracer = Tracer(channels=())
        guard = tracer.channel("irq")
        assert not guard.enabled
        tracer.enable("irq")
        assert guard.enabled and guard.store

    def test_listener_enables_guard_without_storage(self):
        tracer = Tracer(channels=())
        guard = tracer.channel("mem")
        seen = []
        tracer.add_listener(seen.append)
        assert guard.enabled and not guard.store
        guard.emit(5, "c0", "load", addr=4)
        assert len(seen) == 1
        assert len(tracer.records) == 0

    def test_channel_emit_stores_on_enabled_channel(self):
        tracer = Tracer(channels=("bus",))
        tracer.channel("bus").emit(10, "m0", "grant", addr=0x100)
        assert len(tracer.records) == 1
        assert tracer.records[0].channel == "bus"
        assert tracer.records[0].fields["addr"] == 0x100

    def test_channel_emit_respects_capacity(self):
        tracer = Tracer(capacity=3)
        guard = tracer.channel("x")
        for i in range(10):
            guard.emit(i, "s", "k")
        assert len(tracer.records) == 3
        assert tracer.records[0].time == 7

    def test_null_tracer_guards_stay_dead(self):
        tracer = NullTracer()
        guard = tracer.channel("bus")
        assert not guard.enabled
        tracer.enable("bus")  # must NOT start recording on a NullTracer
        assert not guard.enabled and not guard.store

    def test_null_tracer_listener_enables_guard(self):
        tracer = NullTracer()
        guard = tracer.channel("bus")
        seen = []
        tracer.add_listener(seen.append)
        assert guard.enabled and not guard.store
        guard.emit(1, "a", "grant")
        assert len(seen) == 1
        assert len(tracer.records) == 0


class TestEmitAllocation:
    """Disabled channels must not even construct a TraceRecord."""

    @staticmethod
    def _count_records(monkeypatch):
        from repro.sim import tracing

        calls = []
        real = tracing.TraceRecord

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(tracing, "TraceRecord", counting)
        return calls

    def test_emit_builds_no_record_on_disabled_channel(self, monkeypatch):
        calls = self._count_records(monkeypatch)
        tracer = Tracer(channels=("bus",))
        emit(tracer, 1, "cache", "m0", "fill", addr=0x40)
        assert calls == []
        emit(tracer, 2, "bus", "m0", "grant")
        assert len(calls) == 1

    def test_null_tracer_emit_builds_no_record(self, monkeypatch):
        calls = self._count_records(monkeypatch)
        emit(NullTracer(), 1, "bus", "m0", "grant", addr=0x40)
        assert calls == []

    def test_capped_buffer_still_constructs_and_evicts(self, monkeypatch):
        calls = self._count_records(monkeypatch)
        tracer = Tracer(capacity=2)
        for i in range(5):
            emit(tracer, i, "x", "s", "k")
        assert len(calls) == 5  # every record built...
        assert len(tracer.records) == 2  # ...but only the newest kept
        assert [r.time for r in tracer.records] == [3, 4]

    def test_trace_record_has_no_dict(self):
        record = TraceRecord(1, "bus", "a", "grant", {"addr": 4})
        assert not hasattr(record, "__dict__")

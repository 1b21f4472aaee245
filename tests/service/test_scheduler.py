"""Scheduler admission discipline and recovery, without booting workers.

Everything here exercises the pure decision layer: payloads are
admitted, deduped, answered from cache, shed or refused, and journal
lines are written — but the pool is never started, so no simulation
runs.  The full pipeline (with real workers and real sockets) lives in
``test_api.py``.
"""

import asyncio

import pytest

from repro.errors import ConfigError
from repro.exp.cache import engine_tag
from repro.service.config import ServiceConfig
from repro.service.scheduler import (
    DrainingError,
    QueueFullError,
    Scheduler,
)
from repro.service.state import load_journal


def make_scheduler(tmp_path, **overrides) -> Scheduler:
    defaults = dict(
        data_dir=str(tmp_path), workers=1, allow_probe=True, max_queue=4
    )
    defaults.update(overrides)
    return Scheduler(ServiceConfig(**defaults))


def probe(nonce: int) -> dict:
    return {"kind": "probe", "behavior": "ok", "nonce": nonce}


class TestAdmission:
    def test_accepts_and_journals(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        verdict = scheduler.submit(probe(1))
        assert verdict["status"] == "queued"
        entries = load_journal(scheduler.config.journal_path)
        assert verdict["job_id"] in entries
        assert not entries[verdict["job_id"]].cacheable
        assert scheduler.queue_depth() == 1
        scheduler.shutdown()

    def test_job_id_is_the_content_key(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        verdict = scheduler.submit(probe(1))
        canonical = scheduler.jobs[verdict["job_id"]].payload
        assert verdict["job_id"] == scheduler.cache.key_for(canonical)
        scheduler.shutdown()

    def test_jobs_are_keyed_under_the_exact_engine(self, tmp_path):
        # Every service job runs on the exact kernel, so its results
        # are filed under exact's identity; there is no engine knob to
        # file them under another.
        scheduler = make_scheduler(tmp_path)
        assert scheduler.cache.engine == engine_tag()
        assert engine_tag()["name"] == "exact"
        assert "engine" not in scheduler.config.to_dict()
        scheduler.shutdown()
        with pytest.raises(TypeError, match="engine"):
            ServiceConfig(data_dir=str(tmp_path), engine="batch")

    def test_duplicate_submission_dedups(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        first = scheduler.submit(probe(1))
        second = scheduler.submit(probe(1))
        assert second["deduped"]
        assert second["job_id"] == first["job_id"]
        assert scheduler.jobs[first["job_id"]].submitters == 2
        assert scheduler.queue_depth() == 1  # still one pool item
        scheduler.shutdown()

    def test_cached_result_answers_without_a_worker(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        from repro.exp.jobs import job_from_payload

        payload = {"kind": "sequence", "protocols": ["mei", "mesi"],
                   "wrapped": True}
        canonical = job_from_payload(payload).payload()
        key = scheduler.cache.key_for(canonical)
        scheduler.cache.put(key, canonical, {"stale_reads": 0})
        verdict = scheduler.submit(payload)
        assert verdict == {"job_id": key, "status": "done", "cached": True}
        assert scheduler.jobs[key].served_from_cache
        assert scheduler.queue_depth() == 0
        scheduler.shutdown()

    def test_full_queue_sheds_with_retry_after(self, tmp_path):
        scheduler = make_scheduler(tmp_path, max_queue=2)
        scheduler.submit(probe(1))
        scheduler.submit(probe(2))
        with pytest.raises(QueueFullError) as exc:
            scheduler.submit(probe(3))
        assert exc.value.retry_after_s >= 1
        assert scheduler.stats_counters["shed"] == 1
        # The shed job was never journaled: nothing to recover.
        entries = load_journal(scheduler.config.journal_path)
        assert len(entries) == 2
        scheduler.shutdown()

    def test_draining_refuses(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        scheduler.draining = True
        with pytest.raises(DrainingError):
            scheduler.submit(probe(1))
        scheduler.shutdown()

    def test_unknown_kind_rejected(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        with pytest.raises(ConfigError):
            scheduler.submit({"kind": "nonsense"})
        assert scheduler.stats_counters["rejected"] == 1
        scheduler.shutdown()

    def test_malformed_payload_rejected(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        with pytest.raises(ConfigError):
            scheduler.submit({"kind": "sequence"})  # no protocols
        scheduler.shutdown()

    def test_probe_gated_by_config(self, tmp_path):
        scheduler = make_scheduler(tmp_path, allow_probe=False)
        with pytest.raises(ConfigError, match="probe jobs are disabled"):
            scheduler.submit(probe(1))
        scheduler.shutdown()

    def test_idle_worker_takes_a_fresh_job_inside_submit(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        scheduler.pool.start()
        try:
            verdict = scheduler.submit(probe(1))
            # No pump iteration has run: the pool dispatched on submit.
            assert scheduler.queue_depth() == 0
            entry = scheduler.jobs[verdict["job_id"]]
            assert scheduler.pool.active_indices() == [entry.pool_index]
        finally:
            scheduler.shutdown()

    def test_retry_after_is_bounded(self, tmp_path):
        scheduler = make_scheduler(tmp_path, max_queue=1000, timeout_s=9999.0)
        for nonce in range(10):
            scheduler.submit(probe(nonce))
        assert 1 <= scheduler.retry_after_s() <= 60
        scheduler.shutdown()


class TestRecovery:
    def test_terminal_jobs_restore_without_requeue(self, tmp_path):
        first = make_scheduler(tmp_path)
        verdict = first.submit(probe(1))
        first.journal.terminal(
            verdict["job_id"], "done", result={"value": 0}, attempts=1
        )
        first.shutdown()

        second = make_scheduler(tmp_path)
        second.recover()
        entry = second.jobs[verdict["job_id"]]
        assert entry.status == "done"
        assert entry.recovered
        assert entry.result == {"value": 0}
        assert second.queue_depth() == 0
        assert second.stats_counters["recovered_done"] == 1
        second.shutdown()

    def test_pending_with_cached_result_completes_without_requeue(
        self, tmp_path
    ):
        from repro.exp.jobs import job_from_payload

        payload = {"kind": "sequence", "protocols": ["MEI", "MESI"],
                   "wrapped": True}
        first = make_scheduler(tmp_path)
        canonical = job_from_payload(payload).payload()
        verdict = first.submit(payload)
        # Crash window: the result reached the cache, the journal's
        # terminal line did not.
        first.cache.put(verdict["job_id"], canonical, {"stale_reads": 0})
        first.shutdown()

        second = make_scheduler(tmp_path)
        second.recover()
        entry = second.jobs[verdict["job_id"]]
        assert entry.status == "done"
        assert entry.served_from_cache
        assert entry.result == {"stale_reads": 0}
        assert second.queue_depth() == 0  # zero re-simulation
        # The healed terminal line is journaled for the next restart.
        entries = load_journal(second.config.journal_path)
        assert entries[verdict["job_id"]].terminal
        second.shutdown()

    def test_pending_without_result_is_requeued(self, tmp_path):
        first = make_scheduler(tmp_path)
        verdict = first.submit(probe(1))
        first.shutdown()

        second = make_scheduler(tmp_path)
        second.recover()
        assert second.jobs[verdict["job_id"]].status == "queued"
        assert second.queue_depth() == 1
        assert second.stats_counters["recovered_requeued"] == 1
        second.shutdown()


class TestStats:
    def test_stats_shape(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        scheduler.submit(probe(1))
        stats = scheduler.stats()
        for field in ("config", "uptime_s", "draining", "jobs_known",
                      "queue_depth", "in_flight", "counters", "cache",
                      "workers", "stalled_workers"):
            assert field in stats
        assert stats["jobs_known"] == 1
        assert stats["counters"]["accepted"] == 1
        scheduler.shutdown()


class TestLongPollEvent:
    """A job entry holds an Event only while a long-poll waits on it."""

    def test_done_entry_holds_no_event(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        from repro.exp.jobs import job_from_payload

        payload = {"kind": "sequence", "protocols": ["mei", "mesi"],
                   "wrapped": True}
        canonical = job_from_payload(payload).payload()
        key = scheduler.cache.key_for(canonical)
        scheduler.cache.put(key, canonical, {"stale_reads": 0})
        scheduler.submit(payload)
        assert scheduler.jobs[key]._terminal_event is None
        scheduler.shutdown()

    def test_long_poll_on_live_job_wakes_at_terminal(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        entry = scheduler.jobs[scheduler.submit(probe(1))["job_id"]]

        async def go():
            waiter = asyncio.ensure_future(entry.wait_terminal(30.0))
            await asyncio.sleep(0)
            assert entry._terminal_event is not None
            entry.status = "done"
            entry.wake_waiters()
            await asyncio.wait_for(waiter, timeout=5.0)

        asyncio.run(go())
        assert entry._terminal_event is None
        scheduler.shutdown()

    def test_long_poll_on_done_job_answers_at_once(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        entry = scheduler.jobs[scheduler.submit(probe(1))["job_id"]]
        entry.status = "done"
        asyncio.run(asyncio.wait_for(entry.wait_terminal(30.0), timeout=1.0))
        assert entry._terminal_event is None
        scheduler.shutdown()

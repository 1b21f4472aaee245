"""End-to-end API tests: a live service, real sockets, real workers."""

import http.client
import time

import pytest

from repro.errors import IntegrationError
from repro.service.bench import ServiceHarness
from repro.service.client import ServiceHTTPError
from repro.service.config import ServiceConfig


@pytest.fixture
def harness(tmp_path):
    config = ServiceConfig(
        data_dir=str(tmp_path / "svc"),
        workers=2,
        allow_probe=True,
        timeout_s=30.0,
    )
    with ServiceHarness(config) as live:
        yield live


SEQUENCE = {"kind": "sequence", "protocols": ["MEI", "MESI"], "wrapped": True}


class TestLifecycle:
    def test_submit_runs_to_done(self, harness):
        client = harness.client()
        verdict = client.submit(SEQUENCE)
        assert verdict["status"] in ("queued", "running")
        state = client.wait(verdict["job_id"], timeout_s=60.0)
        assert state["status"] == "done"
        assert state["result"]["stale_reads"] == 0

    def test_long_poll_returns_early_status_on_timeout(self, harness):
        client = harness.client()
        verdict = client.submit(
            {"kind": "probe", "behavior": "sleep", "sleep_s": 5.0, "nonce": 1}
        )
        state = client.job(verdict["job_id"], wait_s=0.1)
        assert state["status"] in ("queued", "running")

    def test_unknown_job_404(self, harness):
        with pytest.raises(ServiceHTTPError) as exc:
            harness.client().job("f" * 64)
        assert exc.value.status == 404

    def test_unknown_route_404(self, harness):
        with pytest.raises(ServiceHTTPError) as exc:
            harness.client()._request("GET", "/nonsense")
        assert exc.value.status == 404

    def test_malformed_payload_400(self, harness):
        with pytest.raises(ServiceHTTPError) as exc:
            harness.client().submit({"kind": "sequence"})
        assert exc.value.status == 400

    def test_non_json_body_400(self, harness):
        conn = http.client.HTTPConnection(
            harness.config.host, harness.port, timeout=10
        )
        conn.request("POST", "/jobs", body=b"}{ not json")
        assert conn.getresponse().status == 400
        conn.close()

    def test_healthz_and_stats(self, harness):
        client = harness.client()
        assert client.healthz()["status"] == "alive"
        assert client.readyz()["status"] == "ready"
        stats = client.stats()
        assert stats["ready"] and not stats["draining"]
        assert len(stats["workers"]) == 2

    def test_jobs_listing(self, harness):
        client = harness.client()
        verdict = client.submit(SEQUENCE)
        listed = client.jobs()
        assert [job["job_id"] for job in listed] == [verdict["job_id"]]
        assert "result" not in listed[0]  # summaries only


class TestDedupAndCache:
    def test_identical_submissions_share_one_execution(self, harness):
        client = harness.client()
        first = client.submit(SEQUENCE)
        second = client.submit(SEQUENCE)
        assert second["job_id"] == first["job_id"]
        assert second.get("deduped") or second.get("cached")
        client.wait(first["job_id"], timeout_s=60.0)
        counters = client.stats()["counters"]
        assert counters["terminal_done"] == 1
        assert counters["deduped"] + counters["cache_hits"] == 1

    def test_case_variant_payloads_canonicalise_to_one_job(self, harness):
        client = harness.client()
        a = client.submit(SEQUENCE)
        b = client.submit(
            {"kind": "sequence", "wrapped": True,
             "protocols": ["MEI", "MESI"]}  # different key order
        )
        assert a["job_id"] == b["job_id"]

    def test_probe_nonce_defeats_dedup(self, harness):
        client = harness.client()
        a = client.submit({"kind": "probe", "nonce": 1})
        b = client.submit({"kind": "probe", "nonce": 2})
        assert a["job_id"] != b["job_id"]


class TestStreaming:
    def test_sse_stream_ends_with_result(self, harness):
        client = harness.client()
        verdict = client.submit(SEQUENCE)
        frames = list(client.events(verdict["job_id"]))
        assert frames  # at least the terminal frame
        assert frames[-1]["status"] == "done"
        assert frames[-1]["result"]["stale_reads"] == 0

    def test_sse_on_finished_job_emits_exactly_one_result(self, harness):
        client = harness.client()
        verdict = client.submit(SEQUENCE)
        client.wait(verdict["job_id"], timeout_s=60.0)
        frames = list(client.events(verdict["job_id"]))
        assert len(frames) == 1
        assert frames[0]["status"] == "done"

    def test_client_disconnect_mid_stream_is_tolerated(self, harness):
        client = harness.client()
        verdict = client.submit(
            {"kind": "probe", "behavior": "sleep", "sleep_s": 3.0, "nonce": 9}
        )
        # Open the SSE stream, read the preamble, hang up mid-stream.
        conn = http.client.HTTPConnection(
            harness.config.host, harness.port, timeout=10
        )
        conn.request("GET", f"/jobs/{verdict['job_id']}/events")
        response = conn.getresponse()
        assert response.status == 200
        response.fp.readline()
        conn.close()  # rude disconnect
        # The job still completes and the service still answers.
        state = client.wait(verdict["job_id"], timeout_s=60.0)
        assert state["status"] == "done"
        assert client.healthz()["status"] == "alive"


class TestFailureStatuses:
    def test_deterministic_error_not_retried(self, harness):
        client = harness.client()
        verdict = client.submit(
            {"kind": "probe", "behavior": "error", "nonce": 3}
        )
        state = client.wait(verdict["job_id"], timeout_s=60.0)
        assert state["status"] == "error"
        assert state["attempts"] == 1
        assert "RuntimeError" in state["detail"]

    def test_probe_rejected_when_disabled(self, tmp_path):
        config = ServiceConfig(data_dir=str(tmp_path / "noprobe"), workers=1)
        with ServiceHarness(config) as live:
            with pytest.raises(ServiceHTTPError) as exc:
                live.client().submit({"kind": "probe", "nonce": 1})
            assert exc.value.status == 403


class TestLoadShedding:
    def test_full_queue_answers_429_with_retry_after(self, tmp_path):
        config = ServiceConfig(
            data_dir=str(tmp_path / "tiny"),
            workers=1,
            max_queue=2,
            allow_probe=True,
        )
        with ServiceHarness(config) as live:
            client = live.client()
            sheds = 0
            for nonce in range(12):
                try:
                    client.submit(
                        {"kind": "probe", "behavior": "sleep",
                         "sleep_s": 0.3, "nonce": nonce}
                    )
                except ServiceHTTPError as exc:
                    assert exc.status == 429
                    assert exc.retry_after_s >= 1
                    sheds += 1
            assert sheds > 0
            counters = client.stats()["counters"]
            assert counters["shed"] == sheds
            # Admitted jobs all finish; shed ones were never journaled.
            for job in client.jobs():
                client.wait(job["job_id"], timeout_s=60.0)


class TestDrain:
    def test_drain_finishes_in_flight_work_and_stops(self, tmp_path):
        config = ServiceConfig(
            data_dir=str(tmp_path / "drain"), workers=1, allow_probe=True
        )
        harness = ServiceHarness(config)
        with harness:
            client = harness.client()
            verdict = client.submit(
                {"kind": "probe", "behavior": "sleep",
                 "sleep_s": 0.5, "nonce": 1}
            )
            client.drain()
            # New submissions are refused while draining...
            deadline = time.monotonic() + 10
            refused = False
            while time.monotonic() < deadline and not refused:
                try:
                    client.submit({"kind": "probe", "nonce": 2})
                except (ServiceHTTPError, IntegrationError):
                    refused = True
            assert refused
        # ...the harness exit confirms the service stopped itself; its
        # journal shows the in-flight job completed, not abandoned.
        from repro.service.state import load_journal

        entries = load_journal(config.journal_path)
        assert entries[verdict["job_id"]].status == "done"

"""The ``service-campaign`` workload: a closed-loop client of ``repro serve``.

``repro serve`` runs as a subprocess with 2 workers and fresh data and
cache directories.  This process is the one client: ``CLIENTS`` threads
(connections), each in a closed loop — it submits its next job only
after the previous one reached a terminal state.  Each thread submits
small ``fuzz_case`` payloads whose campaign seed is the workload seed;
about 70% are fresh case indices and about 30% resubmit a case the
same thread already saw finish, so they take the read path (dedup)
beside the write path (simulate, cache put, journal).  The stream of
payloads a thread submits depends only on the seed and the thread.

A job's latency runs from just before ``POST /jobs`` until its terminal
state, with its result, is back at the client.  Every result is checked
against the digest committed in ``expected/service.json`` or, for a case
that table does not cover, against the same job run in this process.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import IntegrationError
from repro.exp.jobs import job_from_payload
from repro.service.client import ServiceClient, ServiceHTTPError
import repro.service.jobs  # noqa: F401  (registers the fuzz job kinds)

CLIENTS = 2
WORKERS = 2
RESUBMIT_SHARE = 0.3
TERMINAL = ("done", "error", "timeout", "crash")
HOST = "127.0.0.1"
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected", "service.json")


def fuzz_payload(seed: int, index: int) -> Dict[str, Any]:
    return {
        "kind": "fuzz_case", "seed": seed, "index": index, "n_masters": 2,
        "p_deadlock": 0.0, "p_unwrapped": 0.0, "p_fault": 0.0,
        "fabric": "atomic",
    }


def result_digest(result: Dict[str, Any]) -> str:
    """Short digest of a job result as the service returns it."""
    blob = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:8]


def committed_digest(table: Dict[str, Any], payload: Dict[str, Any]) -> Optional[str]:
    """The digest committed for this case, when ``expected/service.json``
    covers its seed and index (8 hex characters per index)."""
    row = table["seeds"].get(str(payload["seed"]))
    index = payload["index"]
    if row is None or index >= table["indices"]:
        return None
    return row[8 * index:8 * index + 8]


class Service:
    """One ``repro serve`` subprocess with its own fresh directories."""

    def __init__(self, root: str, work_dir: str, traced_out: Optional[str] = None):
        self.dir = tempfile.mkdtemp(prefix="service-", dir=work_dir)
        data_dir = os.path.join(self.dir, "data")
        self.announce = os.path.join(data_dir, "service.json")
        serve = ["serve", "--data-dir", data_dir,
                 "--cache-dir", os.path.join(self.dir, "cache"),
                 "--host", HOST, "--port", "0", "--workers", str(WORKERS)]
        if traced_out is None:
            cmd = [sys.executable, "-m", "repro"] + serve
        else:
            cmd = [sys.executable, os.path.join(root, "perfbench", "service_boot.py"),
                   traced_out] + serve
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self._log = open(os.path.join(self.dir, "serve.log"), "wb")
        self.launched = time.monotonic()
        self.proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=self._log,
                                     stderr=subprocess.STDOUT)
        self.port: Optional[int] = None

    def wait_ready(self, timeout_s: float = 60.0) -> float:
        """Block until ``/readyz`` answers 200; returns the monotonic time."""
        deadline = self.launched + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise IntegrationError(f"repro serve exited with {self.proc.returncode}")
            if self.port is None:
                try:
                    with open(self.announce, encoding="utf-8") as handle:
                        self.port = json.load(handle)["port"]
                except (OSError, ValueError, KeyError):
                    time.sleep(0.002)
                    continue
            conn = http.client.HTTPConnection(HOST, self.port, timeout=5)
            try:
                conn.request("GET", "/readyz")
                if conn.getresponse().status == 200:
                    return time.monotonic()
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.002)
        raise IntegrationError("repro serve did not become ready")

    def client(self) -> ServiceClient:
        return ServiceClient(HOST, self.port, timeout_s=60.0)

    def peak_rss_mb(self, stats: Dict[str, Any]) -> float:
        """Summed peak RSS of the service and its workers, in MiB."""
        pids = [self.proc.pid] + [w["pid"] for w in stats.get("workers", [])]
        total_kib = 0
        for pid in pids:
            try:
                with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kib += int(line.split()[1])
            except OSError:
                pass
        return total_kib / 1024.0

    def cpu_seconds(self) -> float:
        """Processor time used so far by the service and its current
        workers, in seconds."""
        pids = [self.proc.pid] + [w["pid"] for w in self.client().stats().get("workers", [])]
        ticks = 0
        for pid in pids:
            try:
                with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            ticks += int(fields[11]) + int(fields[12])  # utime, stime
        return ticks / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        """Drain gracefully; kill only if the drain does not finish."""
        try:
            if self.port is not None and self.proc.poll() is None:
                self.client().drain()
            self.proc.wait(timeout=60)
        except (IntegrationError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait(timeout=30)
        finally:
            self._log.close()

    def remove(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def setup_window(root: str, work_dir: str) -> Tuple[float, float]:
    """Launch a service with fresh directories, stop it once ready;
    returns the monotonic times of launch and of ``/readyz`` 200."""
    service = Service(root, work_dir)
    try:
        return service.launched, service.wait_ready()
    finally:
        service.stop()
        service.remove()


def _client_loop(service: Service, seed: int, thread: int, deadline: float,
                 jobs: List[dict], lock: threading.Lock) -> None:
    client = service.client()
    rng = random.Random(seed * 7919 + thread)
    seen: List[Dict[str, Any]] = []
    fresh = 0
    while time.monotonic() < deadline:
        if seen and rng.random() < RESUBMIT_SHARE:
            payload, kind = rng.choice(seen), "resubmit"
        else:
            payload, kind = fuzz_payload(seed, CLIENTS * fresh + thread), "fresh"
            fresh += 1
            seen.append(payload)
        record: Dict[str, Any] = {"payload": payload, "kind": kind}
        start = time.monotonic()
        try:
            verdict = client.submit(payload)
            record["submit_s"] = time.monotonic() - start
            # A dedup verdict carries no result: always fetch the job.
            state = client.job(verdict["job_id"], wait_s=30.0)
            while state["status"] not in TERMINAL:
                state = client.job(verdict["job_id"], wait_s=30.0)
            record.update(status=state["status"], result=state.get("result"),
                          job_id=verdict["job_id"])
        except ServiceHTTPError as exc:
            record.update(status=f"http {exc.status}")
        except IntegrationError as exc:
            record.update(status=f"client error: {exc}")
        record["latency_s"] = time.monotonic() - start
        record["end"] = time.monotonic()
        with lock:
            jobs.append(record)


def _own_cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system


def run_campaign(service: Service, seed: int, seconds: float) -> Dict[str, Any]:
    """Drive the closed loop for ``seconds``; the service must be ready."""
    jobs: List[dict] = []
    lock = threading.Lock()
    cpu_before = service.cpu_seconds() + _own_cpu_seconds()
    start = time.monotonic()
    threads = [
        threading.Thread(target=_client_loop,
                         args=(service, seed, t, start + seconds, jobs, lock))
        for t in range(CLIENTS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    end = max((j["end"] for j in jobs), default=start)
    cpu_s = service.cpu_seconds() + _own_cpu_seconds() - cpu_before
    stats = service.client().stats()
    return {
        "jobs": jobs, "start": start, "end": end, "wall_s": end - start, "stats": stats,
        "cpu_s": cpu_s,
        "peak_rss_mb": service.peak_rss_mb(stats),
    }


def check_jobs(jobs: List[dict]) -> Tuple[List[str], List[str]]:
    """``(failures, findings)``.  A job fails unless it ended ``done``
    with a result equal to the committed digest for its case, or, for a
    case the table does not cover, to the same job run in this process
    outside the service.  A correct result whose fuzz verdict is an
    unexpected coherence violation is a finding about the simulator,
    not a service failure: it is reported, not counted as failed."""
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        table = json.load(handle)
    expected: Dict[str, Any] = {}
    failures: List[str] = []
    findings: List[str] = []
    for job in jobs:
        if job["status"] != "done":
            failures.append(f"job ended {job['status']}")
            continue
        payload, result = job["payload"], job["result"]
        want = committed_digest(table, payload)
        if want is not None:
            matches = result_digest(result) == want
        else:
            key = json.dumps(payload, sort_keys=True)
            if key not in expected:
                expected[key] = json.loads(json.dumps(job_from_payload(payload).run()))
            matches = result == expected[key]
        case = f"fuzz case seed={payload['seed']} index={payload['index']}"
        if not matches:
            failures.append(f"result of {case} differs from the expected one")
        elif result.get("expected") is not True:
            finding = (f"{case}: simulator reports an unexpected "
                       f"{result.get('outcome')} ({result.get('detail')})")
            if finding not in findings:
                findings.append(finding)
    return failures, findings


def summarize(campaign: Dict[str, Any]) -> Dict[str, Any]:
    jobs = campaign["jobs"]
    failures, findings = check_jobs(jobs)
    return {
        "attempted": len(jobs),
        "failed": len(failures),
        "failures": failures[:20],
        "findings": findings,
        "jobs_per_s": len(jobs) / campaign["wall_s"],
        "window": (campaign["start"], campaign["end"]),
        "wall_s": campaign["wall_s"],
        "cpu_s": campaign["cpu_s"],
        "latencies_ms": [j["latency_s"] * 1e3 for j in jobs],
        "fresh": sum(1 for j in jobs if j["kind"] == "fresh"),
        "submit_ms": statistics.median(
            j["submit_s"] * 1e3 for j in jobs if "submit_s" in j),
        "counters": campaign["stats"]["counters"],
        "peak_rss_mb": campaign["peak_rss_mb"],
    }

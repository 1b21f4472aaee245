"""ResilientPool: ordering, crash recovery, timeouts, error reporting."""

import os
import threading
import time

import pytest

from repro.exp.procpool import PoolResult, ResilientPool


def _square(n):
    return n * n


def _slow_square(n):
    time.sleep(0.05)
    return n * n


def _sleep_forever(_item):
    time.sleep(60)


def _raise_value_error(item):
    raise ValueError(f"bad item {item}")


def _crash_once(marker_dir):
    """Die hard on the first attempt, succeed on the second."""
    marker = os.path.join(marker_dir, "attempted")
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("1")
        os._exit(13)
    return "recovered"


def _crash_always(_item):
    os._exit(13)


def _sleep_if_first(item):
    index, marker_dir = item
    marker = os.path.join(marker_dir, f"slow-{index}")
    if index == 1 and not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("1")
        time.sleep(60)
    return index


class TestBasics:
    def test_every_item_yields_one_result(self):
        pool = ResilientPool(_square, workers=2)
        results = list(pool.map_unordered(range(7)))
        assert len(results) == 7
        assert {r.index for r in results} == set(range(7))
        assert all(r.ok for r in results)
        assert sorted(r.value for r in results) == [n * n for n in range(7)]

    def test_empty_items(self):
        pool = ResilientPool(_square, workers=2)
        assert list(pool.map_unordered([])) == []

    def test_results_carry_wall_time_and_pid(self):
        pool = ResilientPool(_slow_square, workers=2)
        results = list(pool.map_unordered([3, 4]))
        assert all(r.wall_s >= 0.04 for r in results)
        assert all(isinstance(r.pid, int) for r in results)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ResilientPool(_square, workers=0)
        with pytest.raises(ValueError):
            ResilientPool(_square, workers=1, max_attempts=0)


class TestFailureModes:
    def test_function_error_is_reported_not_retried(self):
        pool = ResilientPool(_raise_value_error, workers=1, max_attempts=3)
        (result,) = list(pool.map_unordered(["x"]))
        assert result.status == "error"
        assert result.attempts == 1
        assert "ValueError" in result.value
        assert pool.failures == [result]

    def test_crashed_worker_job_is_requeued_and_recovers(self, tmp_path):
        pool = ResilientPool(_crash_once, workers=1, max_attempts=2)
        (result,) = list(pool.map_unordered([str(tmp_path)]))
        assert result.ok
        assert result.value == "recovered"
        assert result.attempts == 2

    def test_persistent_crash_reported_after_bounded_attempts(self):
        pool = ResilientPool(_crash_always, workers=1, max_attempts=2)
        (result,) = list(pool.map_unordered(["x"]))
        assert result.status == "crash"
        assert result.attempts == 2

    def test_hung_job_times_out(self):
        pool = ResilientPool(
            _sleep_forever, workers=1, timeout_s=0.2, max_attempts=1
        )
        start = time.monotonic()
        (result,) = list(pool.map_unordered(["x"]))
        assert result.status == "timeout"
        assert time.monotonic() - start < 10

    def test_hung_job_does_not_block_siblings(self, tmp_path):
        # Item 1 hangs on its first attempt; items 0 and 2 must still
        # complete, and item 1 recovers on its retry.
        pool = ResilientPool(
            _sleep_if_first, workers=2, timeout_s=0.4, max_attempts=2
        )
        items = [(i, str(tmp_path)) for i in range(3)]
        results = {r.index: r for r in pool.map_unordered(items)}
        assert len(results) == 3
        assert results[0].ok and results[2].ok
        assert results[1].ok and results[1].attempts == 2

    def test_crash_counts_as_failure_in_pool_state(self):
        pool = ResilientPool(_crash_always, workers=1, max_attempts=1)
        list(pool.map_unordered(["a", "b"]))
        assert len(pool.failures) == 2
        assert all(f.status == "crash" for f in pool.failures)


class TestStreaming:
    def test_results_stream_as_they_complete(self):
        pool = ResilientPool(_slow_square, workers=2)
        seen = []
        for result in pool.map_unordered(range(4)):
            seen.append(result.index)
        assert len(seen) == 4

    def test_pool_result_ok_property(self):
        assert PoolResult(0, "ok", 1, 0.0, 123, 1).ok
        assert not PoolResult(0, "timeout", "x", 0.0, None, 2).ok


class TestPersistentMode:
    """start / submit / poll / close — the campaign-service contract."""

    def test_submit_before_start_queues(self):
        pool = ResilientPool(_square, workers=1)
        pool.submit(3)
        pool.submit(4)
        assert not pool.started
        assert pool.queued == 2
        assert pool.outstanding == 2

    def test_poll_drains_submissions(self):
        pool = ResilientPool(_square, workers=2)
        try:
            pool.start()
            indices = [pool.submit(n) for n in range(5)]
            got = {}
            deadline = time.monotonic() + 30
            while len(got) < 5 and time.monotonic() < deadline:
                result = pool.poll(timeout=0.2)
                if result is not None:
                    got[result.index] = result
            assert sorted(got) == sorted(indices)
            assert sorted(r.value for r in got.values()) == [0, 1, 4, 9, 16]
            assert pool.outstanding == 0
        finally:
            pool.close()

    def test_start_is_idempotent(self):
        pool = ResilientPool(_square, workers=2)
        try:
            pool.start()
            pids = [w.process.pid for w in pool._pool]
            pool.start()
            assert [w.process.pid for w in pool._pool] == pids
        finally:
            pool.close()

    def test_close_drain_finishes_outstanding_work(self):
        pool = ResilientPool(_slow_square, workers=2)
        pool.start()
        for n in range(4):
            pool.submit(n)
        results = pool.close(drain=True)
        assert len(results) == 4
        assert all(r.ok for r in results)
        assert pool.outstanding == 0

    def test_close_without_drain_abandons_queue(self):
        pool = ResilientPool(_slow_square, workers=1)
        pool.start()
        for n in range(4):
            pool.submit(n)
        results = pool.close(drain=False)
        # Whatever was mid-run may or may not finish; nothing new starts.
        assert len(results) <= 4
        assert not pool.started

    def test_worker_snapshot_shape(self):
        pool = ResilientPool(_sleep_forever, workers=1, timeout_s=5.0)
        try:
            pool.start()
            pool.submit("x")
            deadline = time.monotonic() + 10
            busy = None
            while time.monotonic() < deadline:
                pool.poll(timeout=0.05)
                views = pool.worker_snapshot()
                if views and views[0]["index"] is not None:
                    busy = views[0]
                    break
            assert busy is not None
            assert busy["alive"] and busy["busy_s"] >= 0.0
            assert busy["attempt"] == 1
            assert pool.active_indices() == [busy["index"]]
        finally:
            pool.close()

    def test_submit_dispatches_to_an_idle_worker(self):
        pool = ResilientPool(_sleep_forever, workers=1, timeout_s=30.0)
        try:
            pool.start()
            index = pool.submit("x")
            # No poll(): the idle worker took the job inside submit().
            assert pool.queued == 0
            assert pool.active_indices() == [index]
        finally:
            pool.close()

    def test_collecting_a_result_dispatches_the_next_job(self):
        pool = ResilientPool(_square, workers=1)
        try:
            pool.start()
            first = pool.submit(3)
            second = pool.submit(4)
            assert pool.queued == 1  # one worker, already busy
            deadline = time.monotonic() + 30
            result = None
            while result is None and time.monotonic() < deadline:
                result = pool.poll(timeout=0.2)
            assert result is not None and result.index == first
            # The poll that collected the first result freed the worker
            # and handed it the second job before returning.
            assert pool.queued == 0
            assert pool.active_indices() == [second]
        finally:
            pool.close()

    def test_concurrent_submit_and_poll_yield_one_result_each(
        self, monkeypatch
    ):
        from repro.exp import procpool

        double_bookings = []
        assign = procpool._Worker.assign

        def checked_assign(worker, job):
            if worker.current is not None:
                double_bookings.append((worker.current, job))
            assign(worker, job)

        monkeypatch.setattr(procpool._Worker, "assign", checked_assign)
        pool = ResilientPool(_square, workers=2)
        submitted = []
        try:
            pool.start()

            def submitter():
                for n in range(200):
                    submitted.append(pool.submit(n))

            thread = threading.Thread(target=submitter)
            thread.start()
            results = []
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline and (
                thread.is_alive() or pool.outstanding
            ):
                result = pool.poll(timeout=0.05)
                if result is not None:
                    results.append(result)
                active = pool.active_indices()
                assert len(active) == len(set(active))
            thread.join()
        finally:
            pool.close()
        assert double_bookings == []
        assert sorted(r.index for r in results) == sorted(submitted)
        assert len(submitted) == 200
        assert all(r.ok and r.value == r.index ** 2 for r in results)


class TestBackoff:
    def test_backoff_is_capped_exponential(self):
        pool = ResilientPool(
            _square, workers=1, backoff_s=0.1, backoff_cap_s=0.35
        )
        assert pool.backoff_delay(1) == pytest.approx(0.1)
        assert pool.backoff_delay(2) == pytest.approx(0.2)
        assert pool.backoff_delay(3) == pytest.approx(0.35)  # capped
        assert pool.backoff_delay(9) == pytest.approx(0.35)

    def test_retry_diagnostics_reach_the_result(self, tmp_path):
        pool = ResilientPool(
            _crash_once, workers=1, max_attempts=3,
            backoff_s=0.05, backoff_cap_s=1.0,
        )
        (result,) = list(pool.map_unordered([str(tmp_path)]))
        assert result.ok and result.attempts == 2
        assert result.max_attempts == 3
        assert result.backoff_s == pytest.approx(0.05)

    def test_no_retry_no_backoff_reported(self):
        pool = ResilientPool(_square, workers=1, max_attempts=4)
        (result,) = list(pool.map_unordered([5]))
        assert result.attempts == 1
        assert result.backoff_s == 0.0

    def test_backoff_delays_the_requeue(self, tmp_path):
        pool = ResilientPool(
            _crash_once, workers=1, max_attempts=2,
            backoff_s=0.3, backoff_cap_s=1.0,
        )
        start = time.monotonic()
        (result,) = list(pool.map_unordered([str(tmp_path)]))
        assert result.ok
        assert time.monotonic() - start >= 0.3


class TestSignalHygiene:
    def test_reaped_worker_does_not_poison_parent_wakeup_fd(self):
        """Forked workers must reset inherited signal plumbing.

        An asyncio parent (the campaign service) installs a Python
        SIGTERM handler plus a wakeup fd; both survive fork.  Without
        the worker-side reset, terminating a hung worker writes the
        SIGTERM byte into the *shared* wakeup socket — the parent's
        event loop then believes the service itself was signalled and
        gracefully drains.  The reaped worker must also actually die
        (default disposition), not swallow the signal.
        """
        import signal
        import socket

        recv_sock, send_sock = socket.socketpair()
        recv_sock.setblocking(False)
        send_sock.setblocking(False)
        previous_fd = signal.set_wakeup_fd(send_sock.fileno())
        previous_handler = signal.signal(
            signal.SIGTERM, lambda signum, frame: None
        )
        try:
            pool = ResilientPool(
                _sleep_forever, workers=1, timeout_s=0.2, max_attempts=1
            )
            (result,) = list(pool.map_unordered(["x"]))
            assert result.status == "timeout"
            with pytest.raises(BlockingIOError):
                recv_sock.recv(1)  # no phantom signal byte leaked
        finally:
            signal.signal(signal.SIGTERM, previous_handler)
            signal.set_wakeup_fd(previous_fd)
            recv_sock.close()
            send_sock.close()


_ORPHAN_SCRIPT = """
import time
from repro.exp.procpool import ResilientPool

def _noop(item):
    return item

pool = ResilientPool(_noop, workers=1, timeout_s=30.0)
pool.start()
print(pool._pool[0].process.pid, flush=True)
time.sleep(120)
"""


def _process_gone(pid):
    """True once ``pid`` is dead (a reaped-or-zombie orphan counts)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
        return state == "Z"
    except OSError:
        return True


class TestOrphanSelfReap:
    def test_worker_exits_after_parent_sigkill(self):
        """``kill -9`` on the pool's owner must not leak the fleet.

        SIGKILL tears down no children: without the worker-side
        reparenting check, an orphaned worker blocks on its task queue
        forever (the campaign service's crash drills leaked one fleet
        per kill).  The worker polls ``os.getppid()`` between queue
        slices and exits once its parent is gone.
        """
        import subprocess
        import sys

        repo_src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__)))), "src"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = repo_src
        process = subprocess.Popen(
            [sys.executable, "-c", _ORPHAN_SCRIPT],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        try:
            line = process.stdout.readline()
            worker_pid = int(line)
            os.kill(process.pid, 9)
            process.wait(timeout=10)
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                if _process_gone(worker_pid):
                    break
                time.sleep(0.1)
            else:
                os.kill(worker_pid, 9)
                raise AssertionError(
                    f"worker {worker_pid} survived its parent's SIGKILL"
                )
        finally:
            process.stdout.close()
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)

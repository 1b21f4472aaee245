"""Fixture twins for the three concurrency rules.

Every check gets a violating module and its fixed twin: the twin is
the in-tree fix shape (finally release, release-before-wait, snapshot
iteration, guarded drain commit, bypass/ceiling cycle breakers) and
must come back clean for the rule under test.
"""

import textwrap

from repro.lint.core import load_project, run_rules

CONCUR_RULES = ("resource-release", "hold-across-yield", "wait-cycle")


def findings_for(make_project, rule, files):
    project = make_project(
        {path: textwrap.dedent(src) for path, src in files.items()}
    )
    return [f for f in run_rules(project, [rule]) if f.rule == rule]


class TestResourceRelease:
    def test_unguarded_release_leaks_on_exception(self, make_project):
        found = findings_for(
            make_project,
            "resource-release",
            {
                "bus.py": """
                class Bus:
                    def transact(self, txn):
                        yield self.arbiter.request(txn, 0)
                        yield self.sim.timeout(2)
                        self.arbiter.release(txn)
                """
            },
        )
        (finding,) = found
        assert "bus-tenure" in finding.message
        assert "exception escapes" in finding.message
        assert finding.line == 4  # anchored at the acquire

    def test_return_path_skipping_release(self, make_project):
        found = findings_for(
            make_project,
            "resource-release",
            {
                "bus.py": """
                class Bus:
                    def transact(self, txn):
                        yield self.arbiter.request(txn, 0)
                        if txn:
                            return None
                        try:
                            yield self.sim.timeout(2)
                        finally:
                            self.arbiter.release(txn)
                """
            },
        )
        (finding,) = found
        assert "normal return path" in finding.message

    def test_finally_release_is_clean(self, make_project):
        found = findings_for(
            make_project,
            "resource-release",
            {
                "bus.py": """
                class Bus:
                    def transact(self, txn):
                        yield self.arbiter.request(txn, 0)
                        try:
                            yield self.sim.timeout(2)
                        finally:
                            self.arbiter.release(txn)
                """
            },
        )
        assert found == []

    def test_ownership_transfer_is_not_a_normal_path_leak(self, make_project):
        found = findings_for(
            make_project,
            "resource-release",
            {
                "split.py": """
                class Split:
                    def transact(self, txn):
                        yield self._acquire_slot()
                        self.sim.process(self._data_tenure(txn))
                        return None

                    def _data_tenure(self, txn):
                        yield self.sim.timeout(1)
                        self._release_slot()
                """
            },
        )
        # The handoff covers every *normal* return; only the window
        # between grant and spawn can leak (an exception there).
        assert all("normal return path" not in f.message for f in found)

    def test_missing_transfer_leaks_on_normal_path(self, make_project):
        found = findings_for(
            make_project,
            "resource-release",
            {
                "split.py": """
                class Split:
                    def transact(self, txn):
                        yield self._acquire_slot()
                        return None
                """
            },
        )
        (finding,) = found
        assert "window-slot" in finding.message


class TestHoldDenyList:
    def test_port_held_across_bus_wait(self, make_project):
        found = findings_for(
            make_project,
            "hold-across-yield",
            {
                "ctrl.py": """
                class Controller:
                    def read(self, addr):
                        yield self.port.acquire()
                        try:
                            yield self.arbiter.request(addr, 0)
                            try:
                                yield self.sim.timeout(1)
                            finally:
                                self.arbiter.release(addr)
                        finally:
                            self.port.release()
                """
            },
        )
        (finding,) = found
        assert "cache-port" in finding.message
        assert "bus-tenure" in finding.message

    def test_hold_through_yield_from_chain(self, make_project):
        found = findings_for(
            make_project,
            "hold-across-yield",
            {
                "ctrl.py": """
                class Bus:
                    def transact(self, txn):
                        yield self.arbiter.request(txn, 0)
                        try:
                            yield self.sim.timeout(1)
                        finally:
                            self.arbiter.release(txn)

                class Controller:
                    def read(self, addr):
                        yield self.port.acquire()
                        try:
                            value = yield from self.bus.transact(addr)
                        finally:
                            self.port.release()
                        return value
                """
            },
        )
        (finding,) = found
        assert "via transact" in finding.message

    def test_release_before_wait_is_clean(self, make_project):
        found = findings_for(
            make_project,
            "hold-across-yield",
            {
                "ctrl.py": """
                class Controller:
                    def read(self, addr):
                        yield self.port.acquire()
                        try:
                            value = self.lines[addr]
                        finally:
                            self.port.release()
                        yield self.arbiter.request(addr, 0)
                        try:
                            yield self.sim.timeout(1)
                        finally:
                            self.arbiter.release(addr)
                        return value
                """
            },
        )
        assert found == []


class TestLiveRegistryWalk:
    def test_live_snooper_iteration(self, make_project):
        found = findings_for(
            make_project,
            "hold-across-yield",
            {
                "bus.py": """
                class Bus:
                    def _snoop_window(self, txn):
                        replies = []
                        for snooper in self.snoopers:
                            replies.append(snooper.snoop(txn))
                        return replies
                """
            },
        )
        (finding,) = found
        assert "snoop-window" in finding.message
        assert "self.snoopers" in finding.message

    def test_local_alias_of_live_registry_still_flagged(self, make_project):
        found = findings_for(
            make_project,
            "hold-across-yield",
            {
                "bus.py": """
                class Bus:
                    def _snoop_window(self, txn):
                        snoopers = self.snoopers
                        for snooper in snoopers:
                            snooper.snoop(txn)
                """
            },
        )
        (finding,) = found
        assert "snoop-window" in finding.message

    def test_snapshot_iteration_is_clean(self, make_project):
        found = findings_for(
            make_project,
            "hold-across-yield",
            {
                "bus.py": """
                class Bus:
                    def _snoop_window(self, txn):
                        replies = []
                        for snooper in tuple(self.snoopers):
                            replies.append(snooper.snoop(txn))
                        snapshot = tuple(self.snoopers)
                        for snooper in snapshot:
                            snooper.snoop(txn)
                        return replies
                """
            },
        )
        assert found == []

    def test_loop_without_callbacks_is_clean(self, make_project):
        found = findings_for(
            make_project,
            "hold-across-yield",
            {
                "bus.py": """
                class Bus:
                    def names(self):
                        return [s.name for s in self.snoopers]

                    def count(self):
                        total = 0
                        for snooper in self.snoopers:
                            total += 1
                        return total
                """
            },
        )
        assert found == []


class TestStaleDrainCapture:
    def test_unguarded_drain_commit(self, make_project):
        found = findings_for(
            make_project,
            "hold-across-yield",
            {
                "ctrl.py": """
                class Controller:
                    def _drain_push(self, base, next_state):
                        line = self.array.lookup(base)

                        def commit(result):
                            line.state = next_state

                        yield from self.bus.transact(
                            self._txn(base), priority=Priority.DRAIN, commit=commit
                        )
                """
            },
        )
        (finding,) = found
        assert "stale capture" in finding.message
        assert "'commit'" in finding.message

    def test_snapshot_guarded_commit_is_clean(self, make_project):
        found = findings_for(
            make_project,
            "hold-across-yield",
            {
                "ctrl.py": """
                class Controller:
                    def _drain_push(self, base, next_state):
                        line = self.array.lookup(base)
                        snapshot = tuple(line.data)

                        def commit(result):
                            if tuple(line.data) != snapshot:
                                return
                            line.state = next_state

                        yield from self.bus.transact(
                            self._txn(base), priority=Priority.DRAIN, commit=commit
                        )
                """
            },
        )
        assert found == []

    def test_normal_priority_commit_not_flagged(self, make_project):
        found = findings_for(
            make_project,
            "hold-across-yield",
            {
                "ctrl.py": """
                class Controller:
                    def _miss(self, base, next_state):
                        line = self.array.lookup(base)

                        def commit(result):
                            line.state = next_state

                        yield from self.bus.transact(
                            self._txn(base), priority=Priority.NORMAL, commit=commit
                        )
                """
            },
        )
        assert found == []


# The port <-> drain-completion ring: a reader parks on the drain
# completion holding the port; the drain worker provides the
# completion only after taking the port.
_CYCLE_READER = """
class Controller:
    def read(self, addr):
        yield self.port.acquire()
        try:
            pending = self.pending
            if pending is not None:
                yield self.sim.all_of([pending.completion])
        finally:
            self.port.release()
"""

_CYCLE_WORKER = """
class Worker:
    def _drain_worker(self):
        while True:
            job = self.queue.popleft()
            yield self.port.acquire()
            try:
                yield self.sim.timeout(1)
            finally:
                self.port.release()
            job.completion.succeed()
"""

_BYPASS_WORKER = """
class Worker:
    def _drain_worker(self):
        while True:
            job = self.queue.popleft()
            if self.drain_needs_port:
                yield self.port.acquire()
                try:
                    yield self.sim.timeout(1)
                finally:
                    self.port.release()
            else:
                yield self.sim.timeout(1)
            job.completion.succeed()
"""


class TestWaitCycle:
    def test_port_drain_cycle_reported(self, make_project):
        found = findings_for(
            make_project,
            "wait-cycle",
            {"ctrl.py": _CYCLE_READER, "worker.py": _CYCLE_WORKER},
        )
        assert found, "expected the cache-port <-> drain-completion cycle"
        assert any(
            "cache-port" in f.message and "drain-completion" in f.message
            for f in found
        )
        assert all("waits-for cycle" in f.message for f in found)

    def test_drain_policy_bypass_breaks_the_cycle(self, make_project):
        found = findings_for(
            make_project,
            "wait-cycle",
            {"ctrl.py": _CYCLE_READER, "worker.py": _BYPASS_WORKER},
        )
        assert found == []

    def test_retry_ceiling_downgrades_to_livelock(self, make_project):
        reader = """
        class Ctrl:
            def read(self, addr):
                yield self.port.acquire()
                try:
                    while True:
                        yield self.arbiter.request(addr, 0)
                        self.arbiter.release(addr)
                        self._check_retry_ceiling(addr)
                        break
                finally:
                    self.port.release()
        """
        bus = """
        class Bus:
            def transact(self, txn):
                yield self.arbiter.request(txn, 0)
                try:
                    yield self.port.acquire()
                    self.port.release()
                finally:
                    self.arbiter.release(txn)
        """
        with_ceiling = findings_for(
            make_project, "wait-cycle", {"ctrl.py": reader, "bus.py": bus}
        )
        assert with_ceiling == []
        unguarded = findings_for(
            make_project,
            "wait-cycle",
            {
                "ctrl.py": reader.replace(
                    "self._check_retry_ceiling(addr)\n", "pass\n"
                ),
                "bus.py": bus,
            },
        )
        assert unguarded, "without the ceiling the ring must be reported"


class TestInTreeCleanliness:
    def test_package_source_has_zero_concurrency_findings(self):
        project = load_project()
        found = [
            f
            for f in run_rules(project, list(CONCUR_RULES))
            if f.rule in CONCUR_RULES
        ]
        assert found == [], [f.render() for f in found]

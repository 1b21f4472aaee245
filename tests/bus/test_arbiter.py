"""Unit tests for bus arbitration."""

import pytest

from repro.bus import (
    ARBITERS,
    FixedPriorityArbiter,
    MasterPriorityArbiter,
    Priority,
    RoundRobinArbiter,
)
from repro.errors import BusError, SimulationError
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


def grants_in_order(sim, arbiter, requests):
    """Issue requests, then release in grant order; return grant order."""
    order = []

    def track(name):
        def cb(_event):
            order.append(name)

        return cb

    for name, priority in requests:
        arbiter.request(name, priority).add_callback(track(name))
    sim.run(detect_deadlock=False)
    # Drain: keep releasing whoever holds the bus.
    while arbiter.busy:
        holder = arbiter.holder
        arbiter.release(holder)
        sim.run(detect_deadlock=False)
    return order


class TestFixedPriority:
    def test_fifo_within_level(self, sim):
        arbiter = FixedPriorityArbiter(sim)
        order = grants_in_order(
            sim, arbiter,
            [("a", Priority.NORMAL), ("b", Priority.NORMAL), ("c", Priority.NORMAL)],
        )
        assert order == ["a", "b", "c"]

    def test_drain_beats_normal(self, sim):
        arbiter = FixedPriorityArbiter(sim)
        order = grants_in_order(
            sim, arbiter,
            [("n1", Priority.NORMAL), ("n2", Priority.NORMAL), ("d", Priority.DRAIN)],
        )
        # n1 was already granted (bus idle); d preempts the queue next.
        assert order == ["n1", "d", "n2"]

    def test_retry_beats_normal_but_not_drain(self, sim):
        arbiter = FixedPriorityArbiter(sim)
        order = grants_in_order(
            sim, arbiter,
            [
                ("n1", Priority.NORMAL),
                ("n2", Priority.NORMAL),
                ("r", Priority.RETRY),
                ("d", Priority.DRAIN),
            ],
        )
        assert order == ["n1", "d", "r", "n2"]

    def test_immediate_grant_when_idle(self, sim):
        arbiter = FixedPriorityArbiter(sim)
        grant = arbiter.request("solo")
        sim.run(detect_deadlock=False)
        assert grant.triggered
        assert arbiter.holder == "solo"

    def test_release_by_non_holder_rejected(self, sim):
        arbiter = FixedPriorityArbiter(sim)
        arbiter.request("a")
        sim.run(detect_deadlock=False)
        with pytest.raises(BusError) as exc_info:
            arbiter.release("b")
        # The error names both the offender and the actual holder.
        assert "a" in str(exc_info.value)
        assert "b" in str(exc_info.value)
        # The grant state is untouched by the rejected release.
        assert arbiter.holder == "a"

    def test_release_when_idle_rejected(self, sim):
        arbiter = FixedPriorityArbiter(sim)
        with pytest.raises(BusError):
            arbiter.release("a")

    def test_snapshot_reports_holder_and_queues(self, sim):
        arbiter = FixedPriorityArbiter(sim)
        arbiter.request("a")
        arbiter.request("b")
        arbiter.request("c", Priority.RETRY)
        sim.run(detect_deadlock=False)
        snap = arbiter.snapshot()
        assert snap["holder"] == "a"
        assert snap["grants"] == 1
        assert snap["queued"]["normal"] == ["b"]
        assert snap["queued"]["retry"] == ["c"]
        assert snap["queued"]["drain"] == []

    def test_pending_counts_queued(self, sim):
        arbiter = FixedPriorityArbiter(sim)
        arbiter.request("a")
        arbiter.request("b")
        arbiter.request("c")
        assert arbiter.pending() == 2  # "a" already granted

    def test_grant_counter(self, sim):
        arbiter = FixedPriorityArbiter(sim)
        grants_in_order(sim, arbiter, [("a", Priority.NORMAL), ("b", Priority.NORMAL)])
        assert arbiter.grants == 2


class TestRoundRobin:
    def test_alternates_between_masters(self, sim):
        arbiter = RoundRobinArbiter(sim)
        order = grants_in_order(
            sim, arbiter,
            [
                ("a", Priority.NORMAL),
                ("a", Priority.NORMAL),
                ("b", Priority.NORMAL),
                ("b", Priority.NORMAL),
            ],
        )
        assert order == ["a", "b", "a", "b"]

    def test_single_master_not_starved(self, sim):
        arbiter = RoundRobinArbiter(sim)
        order = grants_in_order(
            sim, arbiter, [("a", Priority.NORMAL), ("a", Priority.NORMAL)]
        )
        assert order == ["a", "a"]

    def test_drain_still_wins(self, sim):
        arbiter = RoundRobinArbiter(sim)
        order = grants_in_order(
            sim, arbiter,
            [("a", Priority.NORMAL), ("a", Priority.NORMAL), ("d", Priority.DRAIN)],
        )
        assert order == ["a", "d", "a"]

    def test_four_masters_served_one_per_rotation(self, sim):
        arbiter = RoundRobinArbiter(sim)
        requests = [(m, Priority.NORMAL) for _ in range(3) for m in "abcd"]
        order = grants_in_order(sim, arbiter, requests)
        assert order == list("abcd") * 3
        assert arbiter.grants_by_master == {m: 3 for m in "abcd"}

    def test_greedy_master_cannot_lap_the_rotation(self, sim):
        # "g" floods the queue; each of the four others still gets one
        # grant per rotation — no master waits more than one rotation.
        arbiter = RoundRobinArbiter(sim)
        requests = [("g", Priority.NORMAL)] * 8
        requests[1:1] = [(m, Priority.NORMAL) for m in "wxyz"]
        order = grants_in_order(sim, arbiter, requests)
        for master in "wxyz":
            assert order.index(master) <= order.index("g") + 1 + "wxyz".index(master)
        assert order.count("g") == 8
        spread = max(arbiter.grants_by_master.values()) / min(
            arbiter.grants_by_master.values()
        )
        assert spread == 8.0  # g got 8, everyone else exactly 1

    def test_cancelled_grant_still_consumes_the_turn(self, sim):
        # The grant-time validate-cancel path: the grantee releases
        # without driving the bus and immediately re-requests.  The
        # rotation pointer has already moved past it, so the waiting
        # masters go first and the canceller rejoins at the back.
        arbiter = RoundRobinArbiter(sim)
        order = []

        def track(name):
            return lambda _event: order.append(name)

        arbiter.request("a").add_callback(track("a"))
        arbiter.request("b").add_callback(track("b"))
        arbiter.request("c").add_callback(track("c"))
        sim.run(detect_deadlock=False)
        assert arbiter.holder == "a"
        arbiter.release("a")  # validate failed: zero-cycle tenure
        arbiter.request("a").add_callback(track("a"))
        sim.run(detect_deadlock=False)
        while arbiter.busy:
            arbiter.release(arbiter.holder)
            sim.run(detect_deadlock=False)
        assert order == ["a", "b", "c", "a"]

    def test_late_joiner_is_served_within_one_rotation(self, sim):
        arbiter = RoundRobinArbiter(sim)
        grants_in_order(
            sim, arbiter, [("a", Priority.NORMAL), ("b", Priority.NORMAL)]
        )
        # Rotation is [a, b] with the pointer on b; a newcomer joins at
        # the back, which is exactly where the scan resumes.
        order = grants_in_order(
            sim, arbiter,
            [("c", Priority.NORMAL), ("a", Priority.NORMAL), ("b", Priority.NORMAL)],
        )
        assert order == ["c", "a", "b"]


class TestMasterPriority:
    def test_ranked_order_wins_inside_normal_band(self, sim):
        arbiter = MasterPriorityArbiter(sim, ranking=("c", "b", "a"))
        order = grants_in_order(
            sim, arbiter, [(m, Priority.NORMAL) for m in "abcd"]
        )
        # "a" is granted immediately (bus idle); then ranked order wins
        # and the unranked "d" slots in last.
        assert order == ["a", "c", "b", "d"]

    def test_top_rank_load_starves_the_rest(self, sim):
        # The discipline's defining trade-off: sustained traffic from
        # the top-ranked master delays everyone else indefinitely.
        arbiter = MasterPriorityArbiter(sim, ranking=("hog",))
        requests = [("seed", Priority.NORMAL), ("victim", Priority.NORMAL)]
        requests += [("hog", Priority.NORMAL)] * 4
        order = grants_in_order(sim, arbiter, requests)
        assert order == ["seed"] + ["hog"] * 4 + ["victim"]

    def test_drain_and_retry_bands_ignore_the_ranking(self, sim):
        arbiter = MasterPriorityArbiter(sim, ranking=("z",))
        order = grants_in_order(
            sim, arbiter,
            [
                ("a", Priority.NORMAL),
                ("z", Priority.NORMAL),
                ("d", Priority.DRAIN),
                ("r", Priority.RETRY),
            ],
        )
        assert order == ["a", "d", "r", "z"]

    def test_unranked_masters_rank_by_first_request(self, sim):
        # With no explicit ranking, each master's rank is fixed by its
        # first request -- so both of b's requests beat c's.
        arbiter = MasterPriorityArbiter(sim)
        order = grants_in_order(
            sim, arbiter, [(m, Priority.NORMAL) for m in "abcb"]
        )
        assert order == ["a", "b", "b", "c"]


class TestRegistry:
    def test_discipline_names_resolve(self):
        assert ARBITERS["fcfs"] is FixedPriorityArbiter
        assert ARBITERS["fixed"] is FixedPriorityArbiter
        assert ARBITERS["priority"] is MasterPriorityArbiter
        assert ARBITERS["round-robin"] is RoundRobinArbiter

    def test_grant_counts_accumulate_per_master(self, sim):
        arbiter = FixedPriorityArbiter(sim)
        grants_in_order(
            sim, arbiter,
            [("a", Priority.NORMAL), ("b", Priority.NORMAL), ("a", Priority.NORMAL)],
        )
        assert arbiter.grants_by_master == {"a": 2, "b": 1}


class TestRoundRobinPruning:
    """A master that stops requesting must not keep a rotation slot."""

    def _settle(self, sim, arbiter, masters):
        """One batch of NORMAL requests, drained to completion."""
        return grants_in_order(
            sim, arbiter, [(m, Priority.NORMAL) for m in masters]
        )

    def test_retired_master_is_pruned(self, sim):
        arbiter = RoundRobinArbiter(sim)
        self._settle(sim, arbiter, ["a", "b", "r"])
        assert "r" in arbiter._rotation
        # r retires; a and b keep the bus busy.  After a rotation's
        # worth of selections scanning over idle r, it is dropped.
        for _ in range(4):
            self._settle(sim, arbiter, ["a", "b"])
        assert "r" not in arbiter._rotation
        assert "r" not in arbiter._known

    def test_live_masters_keep_alternating_after_a_prune(self, sim):
        # The fairness regression: pruning must not disturb the
        # rotation pointer — the survivors keep strict alternation.
        arbiter = RoundRobinArbiter(sim)
        self._settle(sim, arbiter, ["a", "b", "r"])
        for _ in range(4):
            self._settle(sim, arbiter, ["a", "b"])
        assert "r" not in arbiter._rotation
        order = self._settle(sim, arbiter, ["a", "a", "b", "b"])
        assert order == ["a", "b", "a", "b"]

    def test_pruned_master_rejoins_at_the_tail(self, sim):
        arbiter = RoundRobinArbiter(sim)
        self._settle(sim, arbiter, ["a", "b", "r"])
        for _ in range(4):
            self._settle(sim, arbiter, ["a", "b"])
        assert "r" not in arbiter._rotation
        order = self._settle(sim, arbiter, ["r", "a", "b"])
        assert sorted(order) == ["a", "b", "r"]
        assert arbiter._rotation[-1] == "r"

    def test_requesting_master_is_never_pruned(self, sim):
        # A master whose request is merely queued (not yet granted)
        # resets its idle count on every selection.
        arbiter = RoundRobinArbiter(sim)
        for _ in range(8):
            self._settle(sim, arbiter, ["a", "b", "c"])
        assert sorted(arbiter._rotation) == ["a", "b", "c"]

    def test_prune_waits_a_full_rotation(self, sim):
        # One idle batch is not enough: the horizon is a full
        # rotation's worth of selections, so a briefly-quiet master
        # keeps its slot (and its rotation position).
        arbiter = RoundRobinArbiter(sim)
        self._settle(sim, arbiter, ["a", "b", "r"])
        self._settle(sim, arbiter, ["a", "b"])
        assert "r" in arbiter._rotation


def _policy_state(arbiter):
    """Everything a grant may move: the counters and the policy's own
    state (the rotation pointer, idle counts and ranks)."""
    return (
        arbiter.holder, arbiter.grants, dict(arbiter.grants_by_master),
        getattr(arbiter, "_last_master", None),
        list(getattr(arbiter, "_rotation", ())),
        dict(getattr(arbiter, "_idle_selections", {})),
        dict(getattr(arbiter, "_rank", {})),
    )


def _drive(sim, stepwise):
    """run(), or step() until the queue drains (step never grants in place)."""
    if stepwise:
        while sim.peek() is not None:
            sim.step()
    else:
        sim.run()


@pytest.mark.parametrize(
    "discipline", [FixedPriorityArbiter, MasterPriorityArbiter, RoundRobinArbiter]
)
class TestInPlaceGrant:
    """A request that meets a free bus is granted in place exactly when
    ``sim.advance(0)`` says its queued grant would be the next event
    run() fires; in every other case the grant is queued.  ``_select``
    runs either way, so order, times, event counts, grant counters and
    the policy's state all equal the queued path's."""

    def _probe(self, sim, arbiter, log, master="p", before=None, hold=0,
               priority=Priority.NORMAL):
        """A process that takes the bus after ``before`` the way a bus
        tenure does, logging whether its grant had fired in place."""

        def proc():
            yield before if before is not None else sim.timeout(0)
            grant = arbiter.request(master, priority)
            log.append((master, grant.triggered))
            granted = yield grant
            log.append((master, "holds", sim.now, granted))
            if hold:
                yield sim.timeout(hold)
            arbiter.release(master)

        return sim.process(proc())

    def test_free_bus_is_granted_in_place_and_counted(self, discipline):
        def drive(stepwise):
            sim = Simulator()
            arbiter = discipline(sim)
            log = []
            self._probe(sim, arbiter, log)
            _drive(sim, stepwise)
            return log, (sim.now, sim.events_fired), _policy_state(arbiter)

        in_place, queued = drive(False), drive(True)
        assert in_place[0] == [("p", True), ("p", "holds", 0, "p")]
        assert queued[0] == [("p", False), ("p", "holds", 0, "p")]
        # bootstrap, timeout(0), the grant, the process's own end
        assert in_place[1] == queued[1] == (0, 4)
        assert in_place[2] == queued[2]
        assert in_place[2][:3] == (None, 1, {"p": 1})

    def test_counts_order_and_policy_state_match_the_queued_grant(self, discipline):
        def drive(stepwise):
            sim = Simulator()
            arbiter = discipline(sim)
            log = []

            def master(name, delay, hold, rounds):
                for index in range(rounds):
                    yield sim.timeout(delay)
                    priority = Priority.RETRY if index % 3 == 2 else Priority.NORMAL
                    grant = arbiter.request(name, priority)
                    log.append((name, "asks", sim.now, grant.triggered))
                    yield grant
                    log.append((name, "holds", sim.now))
                    yield sim.timeout(hold)
                    arbiter.release(name)

            sim.process(master("a", 3, 4, 6))
            sim.process(master("b", 5, 2, 6))
            sim.process(master("c", 7, 1, 3))  # retires early
            _drive(sim, stepwise)
            in_place = sum(1 for entry in log if entry[1] == "asks" and entry[3])
            order = [entry[:3] for entry in log]
            return (order, sim.events_fired, sim.now,
                    _policy_state(arbiter)), in_place

        (run_result, in_place), (step_result, queued) = drive(False), drive(True)
        assert run_result == step_result
        assert in_place > 0 and queued == 0
        assert run_result[3][1] == 15  # every request granted once

    def test_pending_same_tick_event_queues_the_grant(self, discipline, sim):
        arbiter = discipline(sim)
        log = []

        def proc():
            yield sim.timeout(0)
            other = sim.event()
            other.add_callback(lambda _e: log.append("other"))
            other.succeed()
            grant = arbiter.request("p")
            log.append(("p", grant.triggered))
            yield grant
            log.append("holds")

        sim.process(proc())
        sim.run(detect_deadlock=False)
        assert log == [("p", False), "other", "holds"]
        assert sim.events_fired == 5
        assert arbiter.grants_by_master == {"p": 1}

    def test_heap_entry_due_now_queues_the_grant(self, discipline, sim):
        arbiter = discipline(sim)
        log = []
        self._probe(sim, arbiter, log, before=sim.timeout(5))
        sim.timeout(5).add_callback(lambda _e: log.append("heap"))
        sim.run()
        assert log == [("p", False), "heap", ("p", "holds", 5, "p")]

    def test_held_bus_queues_the_grant(self, discipline, sim):
        arbiter = discipline(sim)
        log = []
        self._probe(sim, arbiter, log, master="a", before=sim.timeout(1), hold=5)
        self._probe(sim, arbiter, log, master="b", before=sim.timeout(2))
        seen = []
        sim.timeout(3).add_callback(lambda _e: seen.append(arbiter.holder))
        sim.run()
        assert log == [("a", True), ("a", "holds", 1, "a"), ("b", False),
                       ("b", "holds", 6, "b")]
        assert seen == ["a"]
        assert arbiter.grants_by_master == {"a": 1, "b": 1}

    def test_older_banded_request_queues_the_grant(self, discipline, sim):
        # A free bus with a request already banded is a state release()
        # never leaves (it hands the bus on at once), so it is built by
        # hand: the policy's choice is the older request, not the
        # requester's, and neither grant fires in place.
        arbiter = discipline(sim)
        older = sim.event()
        arbiter._queues[Priority.DRAIN].append(("d", older))
        log = []

        def drainer():
            yield older
            log.append(("d", "holds", sim.now))
            yield sim.timeout(2)
            arbiter.release("d")

        sim.process(drainer())
        self._probe(sim, arbiter, log)
        sim.run()
        assert log == [("p", False), ("d", "holds", 0), ("p", "holds", 2, "p")]
        assert arbiter.grants_by_master == {"d": 1, "p": 1}

    def test_step_queues_the_grant(self, discipline, sim):
        arbiter = discipline(sim)
        log = []
        self._probe(sim, arbiter, log)
        _drive(sim, stepwise=True)
        assert log == [("p", False), ("p", "holds", 0, "p")]
        assert sim.events_fired == 4

    def test_max_events_budget(self, discipline):
        def run(budget):
            sim = Simulator()
            arbiter = discipline(sim)
            granted = []

            def spinner():
                for _ in range(100):  # bounded, so a broken guard fails fast
                    grant = arbiter.request("p")
                    granted.append(grant.triggered)
                    yield grant
                    arbiter.release("p")

            sim.process(spinner())
            with pytest.raises(SimulationError, match="max_events"):
                sim.run(max_events=budget)
            return sim.events_fired, arbiter.grants, granted[-1]

        # the grant that would be the budget-th event is queued instead
        for budget in (1, 2, 3, 50):
            assert run(budget) == (budget, budget, False)


class TestInPlaceRoundRobinPointer:
    def test_in_place_grant_moves_the_pointer(self, sim):
        # Rotation [a, b, c] with the pointer on c; b then takes the
        # free bus in place, so the next contended selection starts
        # past b and serves c before a.
        arbiter = RoundRobinArbiter(sim)
        grants_in_order(sim, arbiter, [(m, Priority.NORMAL) for m in "abc"])
        assert arbiter._last_master == "c"
        log = []

        def master(name, delay, hold=0):
            yield sim.timeout(delay)
            grant = arbiter.request(name)
            log.append((name, grant.triggered))
            yield grant
            log.append((name, "holds", sim.now))
            yield sim.timeout(hold)
            arbiter.release(name)

        sim.process(master("b", 1, hold=5))
        sim.process(master("a", 2))
        sim.process(master("c", 3))
        sim.run()
        assert log == [("b", True), ("b", "holds", 1), ("a", False),
                       ("c", False), ("c", "holds", 6), ("a", "holds", 6)]
        assert arbiter._last_master == "a"

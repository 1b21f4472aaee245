"""Exhaustive model checking of the wrapper integration (Section 2).

The simulator tests sample behaviours; this module *enumerates* them.
For one shared line and N caches it explores every reachable abstract
state under every interleaving of the ``3 * N`` events

    read(i) write(i) evict(i)        for i in range(N)

and checks three safety properties in every state:

* **no stale read** — a processor-side read always returns the most
  recently written value (tracked symbolically as per-copy freshness
  bits, not concrete data);
* **single-writer** — M/E copies never coexist with other copies, and
  at most one owner exists;
* **no lost data** — the only fresh copy is never silently dropped.

The transition semantics call :mod:`repro.core.coherence`, the same
coherence step the simulator executes: each protocol FSM behind its
:class:`WrapperPolicy` (read-to-write conversion on the snoop path,
shared-signal forcing on the fill path, drain-before-data for dirty
snoop hits) and the bus's window resolution and ARTRY loop.  Checking
a configuration therefore validates the reduction policy itself,
exhaustively:

>>> check_pair("MESI", "MEI").ok                   # wrapped: safe
True
>>> check_pair("MESI", "MEI", wrapped=False).ok    # Table 2: unsafe
False
>>> check_system(["MESI", "MEI", "MOESI"]).ok      # N-way reduction
True
>>> check_system(["MESI", "MEI", "MOESI"], directory=True).ok
True

``directory=True`` re-runs the exploration over the presence-filtered
snoop window that all three fabrics run (``AsbBus._snoop_window``:
only recorded holders are snooped, with the presence bits as explicit
model state) and adds a fourth property, **dir-miss**: the presence
map never forgets a valid copy.  The default explores plain broadcast
snooping, the paper's bus.

The abstract state is ``(states, fresh-bits, mem_fresh)`` — a few
dozen reachable states for a pair, a few hundred for a triple — so the
pair matrix checks in milliseconds and triples stay well under a
second.  State count grows exponentially with N; three or four caches
is the practical ceiling (beyond that the fuzzer samples instead).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..bus.types import BusOp, SnoopAction
from ..cache.line import State
from ..cache.protocols import make_protocol
from ..cache.protocols.base import WriteAction
from ..core.coherence import resolve_window, step_for
from ..core.reduction import WrapperPolicy, reduce_protocols
from ..errors import ProtocolError

__all__ = [
    "ModelState",
    "Violation",
    "CheckResult",
    "check_pair",
    "check_system",
    "check_matrix",
]

_EVENT_KINDS = ("read", "write", "evict")


def _event_alphabet(n: int) -> Tuple[str, ...]:
    return tuple(f"{kind}{i}" for i in range(n) for kind in _EVENT_KINDS)


@dataclass(frozen=True)
class ModelState:
    """Abstract system state for one line and N caches.

    ``fresh``/``mem_fresh`` record whether each copy (and memory) holds
    the value of the most recent write; they are the symbolic stand-in
    for data.  Under ``directory=True`` exploration, ``present`` is the
    bus presence map's per-cache bit, updated by the same install/
    remove listener discipline every fabric uses — it is *separate*
    state precisely so the checker can prove it never diverges from
    line validity (the ``dir-miss`` property).  Empty on broadcast runs.
    """

    states: Tuple[State, ...]
    fresh: Tuple[bool, ...]
    mem_fresh: bool
    present: Tuple[bool, ...] = ()

    def describe(self) -> str:
        """Compact human-readable rendering."""
        cells = []
        for index in range(len(self.states)):
            stale = (
                "(stale)"
                if self.states[index] is not State.INVALID and not self.fresh[index]
                else ""
            )
            cells.append(f"P{index}:{self.states[index]}{stale}")
        cells.append(f"mem:{'fresh' if self.mem_fresh else 'stale'}")
        if self.present:
            sharers = ",".join(
                f"P{i}" for i, bit in enumerate(self.present) if bit
            )
            cells.append(f"dir:[{sharers}]")
        return " ".join(cells)


@dataclass(frozen=True)
class Violation:
    """A safety violation plus the event path that reaches it."""

    kind: str           # "stale-read" | "swmr" | "lost-data" | "dir-miss"
    state: ModelState
    path: Tuple[str, ...]

    def describe(self) -> str:
        """One-line rendering with the witness path."""
        trail = " -> ".join(self.path) or "<init>"
        return f"{self.kind} after {trail}: {self.state.describe()}"


@dataclass
class CheckResult:
    """Outcome of exploring one protocol configuration."""

    protocols: Tuple[str, ...]
    wrapped: bool
    reachable_states: int
    violations: List[Violation]
    directory: bool = False

    @property
    def ok(self) -> bool:
        """True when no violation is reachable."""
        return not self.violations

    def render(self) -> str:
        """Summary plus the first few witnesses."""
        status = "SAFE" if self.ok else "UNSAFE"
        flavour = "wrapped" if self.wrapped else "unwrapped"
        if self.directory:
            flavour += ", directory"
        lines = [
            f"{'+'.join(self.protocols)} "
            f"({flavour}): {status}, "
            f"{self.reachable_states} reachable states"
        ]
        lines += [f"  {v.describe()}" for v in self.violations[:3]]
        return "\n".join(lines)


class _SystemModel:
    """Transition function for N protocol FSMs under wrapper policies.

    ``directory=True`` swaps the broadcast snoop window for the
    presence-filtered window all three fabrics run: only caches whose
    presence bit is set get snooped, and the presence bits are kept by
    the bus's listener discipline (set on fill/install, cleared on
    any transition to INVALID).  The exhaustive exploration then proves
    that skipping absent caches loses no invalidation — i.e. that the
    presence set is always a superset of the valid copies.
    """

    def __init__(
        self,
        names: Sequence[str],
        policies: Sequence[WrapperPolicy],
        directory: bool = False,
    ):
        self.protocols = tuple(make_protocol(name) for name in names)
        self.steps = tuple(
            step_for(protocol, policy)
            for protocol, policy in zip(self.protocols, policies)
        )
        self.n = len(self.protocols)
        self.directory = directory

    @staticmethod
    def _enter(states, fresh, present, index, state) -> None:
        """Move one copy to ``state``; leaving drops freshness and the sharer bit."""
        states[index] = state
        if state is State.INVALID:
            fresh[index] = False
            if present is not None:
                present[index] = False  # remove listener

    def _snoop(self, states, fresh, mem_fresh, actor, op, present=None):
        """Run one bus operation's snoop window to completion.

        The bus's ARTRY loop: every valid non-acting cache answers the
        window in ascending index order (the combinational address
        phase) through its coherence step.  Non-drain outcomes commit
        at once; if any cache drains, the dirty copies are pushed to
        memory and the window re-runs against the post-drain states.
        :func:`resolve_window` then gives the wired-OR SHARED and the
        first supplier.  On a safe configuration at most one cache owns
        the line, so the supplier choice cannot matter; on an unsafe
        one any choice yields a witness.  One re-run suffices for a
        sound FSM, so a second ARTRY means a defective one and raises
        :class:`~repro.errors.ProtocolError` rather than spinning.

        Returns ``(mem_fresh, supplied_fresh, shared)``, where
        ``supplied_fresh`` is the freshness of cache-to-cache data (None
        when memory supplies).  Broadcast by default; with ``present``
        (directory mode) only caches whose presence bit is set are
        consulted, exactly the presence-filtered window every fabric
        runs.  A valid-but-absent cache is *not* patched over here: the
        explorer surfaces it as a ``dir-miss`` violation, since the
        filtered window would lose the invalidation.
        """
        for attempt in range(2):
            window = []
            for snooper in range(self.n):
                state = states[snooper]
                if snooper == actor or state is State.INVALID:
                    continue
                if present is not None and not present[snooper]:
                    continue
                outcome = self.steps[snooper].outcome(op, state, f"P{snooper}")
                window.append(((snooper, fresh[snooper]), outcome))
                if outcome.action is not SnoopAction.RETRY:
                    self._enter(states, fresh, present, snooper, outcome.next_state)
            retriers, shared, supplier = resolve_window(window)
            if not retriers:
                supplied_fresh = None if supplier is None else supplier[0][1]
                return mem_fresh, supplied_fresh, shared
            if attempt:
                (snooper, _fresh), _outcome = retriers[0]
                raise ProtocolError(
                    f"P{snooper}: {self.protocols[snooper].name} demanded a second "
                    f"drain from {states[snooper]} on {op.value}"
                )
            for (snooper, _fresh), outcome in retriers:
                mem_fresh = fresh[snooper]  # dirty copy pushed to memory
                self._enter(states, fresh, present, snooper, outcome.next_state)

    # -- events --------------------------------------------------------------
    def step(self, model: ModelState, event: str) -> Tuple[ModelState, Optional[str]]:
        """Apply one event; returns (next_state, violation_kind|None)."""
        kind = event.rstrip("0123456789")
        actor = int(event[len(kind):])
        if kind == "read":
            return self._read(model, actor)
        if kind == "write":
            return self._write(model, actor)
        return self._evict(model, actor)

    def _present_list(self, model: ModelState):
        return list(model.present) if self.directory else None

    @staticmethod
    def _pack_present(present) -> Tuple[bool, ...]:
        return tuple(present) if present is not None else ()

    def _read(self, model: ModelState, actor: int):
        states = list(model.states)
        fresh = list(model.fresh)
        present = self._present_list(model)
        mem_fresh = model.mem_fresh
        if states[actor] is not State.INVALID:
            # Hit: returns the cached copy — a stale copy is the bug.
            violation = None if fresh[actor] else "stale-read"
            return model, violation
        mem_fresh, supplied_fresh, shared = self._snoop(
            states, fresh, mem_fresh, actor, BusOp.READ_LINE, present
        )
        states[actor] = self.steps[actor].fill(False, shared)
        if present is not None:
            present[actor] = True  # install listener: line filled
        source_fresh = supplied_fresh if supplied_fresh is not None else mem_fresh
        fresh[actor] = source_fresh
        next_model = ModelState(
            tuple(states), tuple(fresh), mem_fresh, self._pack_present(present)
        )
        return next_model, None if source_fresh else "stale-read"

    def _write(self, model: ModelState, actor: int):
        states = list(model.states)
        fresh = list(model.fresh)
        present = self._present_list(model)
        mem_fresh = model.mem_fresh
        write_through = False
        if states[actor] is State.INVALID:
            if State.MODIFIED not in self.protocols[actor].states:
                # Write-through no-allocate (SI): the word goes to memory.
                mem_fresh, _s, _sh = self._snoop(
                    states, fresh, mem_fresh, actor, BusOp.WRITE, present
                )
                write_through = True
            else:
                # RWITM fill.
                mem_fresh, _s, shared = self._snoop(
                    states, fresh, mem_fresh, actor, BusOp.READ_LINE_EXCL, present
                )
                states[actor] = self.steps[actor].fill(True, shared)
                if present is not None:
                    present[actor] = True  # install listener: line filled
        else:
            new_state, action = self.protocols[actor].write_hit(states[actor])
            if action is WriteAction.UPGRADE:
                mem_fresh, _s, _sh = self._snoop(
                    states, fresh, mem_fresh, actor, BusOp.INVALIDATE, present
                )
            elif action is WriteAction.WRITE_THROUGH:
                mem_fresh, _s, _sh = self._snoop(
                    states, fresh, mem_fresh, actor, BusOp.WRITE, present
                )
                write_through = True
            self._enter(states, fresh, present, actor, new_state)
        # The write retires: this value is now the latest.  Any other
        # valid copy is stale (no update protocols in this model);
        # memory is fresh only for a write-through retirement.
        fresh[actor] = states[actor] is not State.INVALID
        for other in range(self.n):
            if other != actor and states[other] is not State.INVALID:
                fresh[other] = False
        mem_fresh = write_through
        next_model = ModelState(
            tuple(states), tuple(fresh), mem_fresh, self._pack_present(present)
        )
        return next_model, None

    def _evict(self, model: ModelState, actor: int):
        states = list(model.states)
        fresh = list(model.fresh)
        present = self._present_list(model)
        mem_fresh = model.mem_fresh
        if states[actor] is State.INVALID:
            return model, None
        if states[actor].is_dirty:
            mem_fresh = fresh[actor]
        elif (
            fresh[actor]
            and not mem_fresh
            and not any(fresh[j] for j in range(self.n) if j != actor)
        ):
            # Dropping the only fresh copy without a write-back: a clean
            # copy should always be backed by fresh memory.
            return model, "lost-data"
        self._enter(states, fresh, present, actor, State.INVALID)
        next_model = ModelState(
            tuple(states), tuple(fresh), mem_fresh, self._pack_present(present)
        )
        return next_model, None


def _swmr_violated(states: Tuple[State, ...]) -> bool:
    exclusive = sum(1 for s in states if s in (State.MODIFIED, State.EXCLUSIVE))
    valid = sum(1 for s in states if s is not State.INVALID)
    if exclusive and valid > 1:
        return True
    owners = sum(1 for s in states if s is State.OWNED)
    return owners > 1


def _dir_mirror_broken(model: ModelState) -> bool:
    """A valid copy the directory does not know about.

    The unsafe direction of the valid<->present mirror: a forward to an
    absent cache is harmless (it would answer MISS), but a valid copy
    with no sharer bit means a future invalidation never reaches it.
    """
    return any(
        state is not State.INVALID and not bit
        for state, bit in zip(model.states, model.present)
    )


def check_system(
    protocols: Sequence[str],
    wrapped: bool = True,
    max_violations: int = 8,
    directory: bool = False,
) -> CheckResult:
    """Exhaustively explore one ordered N-protocol configuration.

    ``wrapped=True`` uses the policies from :func:`reduce_protocols`;
    ``wrapped=False`` uses identity policies (native snooping), which is
    expected to fail for the paper's incompatible combinations.
    ``directory=True`` runs the same exploration over the
    presence-filtered snoop window all three fabrics run instead of
    broadcast, with the presence bits tracked as explicit state and a
    ``dir-miss`` check that the presence map never forgets a valid
    copy.
    """
    names = tuple(protocols)
    n = len(names)
    if wrapped:
        policies = reduce_protocols(names).policies
    else:
        policies = tuple(WrapperPolicy() for _ in names)
    model = _SystemModel(names, policies, directory=directory)
    initial = ModelState(
        tuple(State.INVALID for _ in range(n)),
        tuple(False for _ in range(n)),
        mem_fresh=True,
        present=tuple(False for _ in range(n)) if directory else (),
    )
    events = _event_alphabet(n)
    seen: Dict[ModelState, Tuple[str, ...]] = {initial: ()}
    queue = deque([initial])
    violations: List[Violation] = []
    flagged = set()
    while queue:
        current = queue.popleft()
        path = seen[current]
        for event in events:
            next_state, bad = model.step(current, event)
            if bad is None and _swmr_violated(next_state.states):
                bad = "swmr"
            if bad is None and directory and _dir_mirror_broken(next_state):
                bad = "dir-miss"
            if bad is not None:
                witness = (bad, next_state)
                if witness not in flagged and len(violations) < max_violations:
                    flagged.add(witness)
                    violations.append(
                        Violation(kind=bad, state=next_state, path=path + (event,))
                    )
                continue
            if next_state not in seen:
                seen[next_state] = path + (event,)
                queue.append(next_state)
    return CheckResult(
        protocols=names,
        wrapped=wrapped,
        reachable_states=len(seen),
        violations=violations,
        directory=directory,
    )


def check_pair(
    p0: str,
    p1: str,
    wrapped: bool = True,
    max_violations: int = 8,
) -> CheckResult:
    """Exhaustively explore one ordered protocol pair (N=2 system)."""
    return check_system((p0, p1), wrapped=wrapped, max_violations=max_violations)


def check_matrix(
    protocols: Sequence[str] = ("MEI", "MSI", "MESI", "MOESI"),
    wrapped: bool = True,
) -> Dict[Tuple[str, str], CheckResult]:
    """Check every ordered pair; returns results keyed by pair."""
    results = {}
    for p0 in protocols:
        for p1 in protocols:
            results[(p0, p1)] = check_pair(p0, p1, wrapped=wrapped)
    return results

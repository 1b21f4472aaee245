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
code the simulator executes: each protocol FSM behind its
:class:`WrapperPolicy` as the eager snoop, write-hit and fill tables
(read-to-write conversion on the snoop path, shared-signal forcing on
the fill path, drain-before-data for dirty snoop hits), the write-miss
rule, and the untimed ARTRY window
:func:`~repro.core.coherence.run_window` the batch engine runs too.
Checking a configuration therefore validates the reduction policy
itself, exhaustively:

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

from ..bus.types import BusOp
from ..cache.line import State
from ..cache.protocols import make_protocol
from ..cache.protocols.base import WriteAction
from ..core.coherence import WriteMiss, run_window, step_for
from ..core.reduction import WrapperPolicy, reduce_protocols

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


class _Scratch:
    """One event's mutable copy of a :class:`ModelState`.

    ``holders``/``commit``/``drain`` are its snooper view for
    :func:`~repro.core.coherence.run_window`: a snooper is ``(index,
    fresh)``, its freshness captured when snooped (a supplier that
    invalidates loses it at commit).
    """

    __slots__ = ("steps", "states", "fresh", "present", "mem_fresh")

    def __init__(self, steps, model: ModelState, directory: bool):
        self.steps = steps
        self.states = list(model.states)
        self.fresh = list(model.fresh)
        self.present = list(model.present) if directory else None
        self.mem_fresh = model.mem_fresh

    def freeze(self) -> ModelState:
        present = tuple(self.present or ())
        return ModelState(tuple(self.states), tuple(self.fresh), self.mem_fresh, present)

    def enter(self, index: int, state: State) -> None:
        """Move one copy to ``state``; leaving drops freshness and the sharer bit."""
        self.states[index] = state
        if state is State.INVALID:
            self.fresh[index] = False
            if self.present is not None:
                self.present[index] = False  # remove listener

    def fill(self, index: int, state: State) -> None:
        self.states[index] = state
        if self.present is not None:
            self.present[index] = True  # install listener: line filled

    def holders(self, _addr, actor):
        states, fresh, present = self.states, self.fresh, self.present
        return [
            ((index, fresh[index]), step, states[index], None, f"P{index}")
            for index, step in enumerate(self.steps)
            if index != actor and states[index] is not State.INVALID
            and (present is None or present[index])
        ]

    def commit(self, who, state: State) -> None:
        self.enter(who[0], state)

    def drain(self, who, state: State) -> None:
        self.mem_fresh = self.fresh[who[0]]  # dirty copy pushed to memory
        self.enter(who[0], state)

    def snoop(self, op: BusOp, actor: int) -> Tuple[Optional[bool], bool]:
        """Run one bus operation's window; ``(supplied_fresh, shared)``.

        Valid non-acting caches (in directory mode, only those present)
        answer in index order; ``supplied_fresh`` is None when memory
        supplies.  A safe configuration has at most one owner, so the
        supplier choice cannot matter.
        """
        shared, supplier, _retried = run_window(
            op, 0, None, actor, self.holders, self.commit, self.drain
        )
        return (None if supplier is None else supplier[0][1]), shared


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
        self.steps = tuple(
            step_for(make_protocol(name), policy)
            for name, policy in zip(names, policies)
        )
        self.directory = directory

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

    def _read(self, model: ModelState, actor: int):
        if model.states[actor] is not State.INVALID:
            # Hit: returns the cached copy — a stale copy is the bug.
            return model, None if model.fresh[actor] else "stale-read"
        nxt = _Scratch(self.steps, model, self.directory)
        supplied_fresh, shared = nxt.snoop(BusOp.READ_LINE, actor)
        nxt.fill(actor, self.steps[actor].fill_for(False, shared))
        source_fresh = supplied_fresh if supplied_fresh is not None else nxt.mem_fresh
        nxt.fresh[actor] = source_fresh
        return nxt.freeze(), None if source_fresh else "stale-read"

    def _write(self, model: ModelState, actor: int):
        nxt = _Scratch(self.steps, model, self.directory)
        states = nxt.states
        step = self.steps[actor]
        write_through = False
        if states[actor] is State.INVALID:
            if step.write_miss is WriteMiss.NO_ALLOCATE:
                # Write-through no-allocate (SI): the word goes to memory.
                nxt.snoop(BusOp.WRITE, actor)
                write_through = True
            else:
                # RWITM fill.  An update protocol's fill-shared miss is not
                # modelled: its exclusive fill raises the FSM's own error.
                _fresh, shared = nxt.snoop(BusOp.READ_LINE_EXCL, actor)
                nxt.fill(actor, step.fill_for(True, shared))
        else:
            new_state, action = step.write_hit_for(states[actor])
            if action is WriteAction.UPGRADE:
                nxt.snoop(BusOp.INVALIDATE, actor)
            elif action is WriteAction.WRITE_THROUGH:
                nxt.snoop(BusOp.WRITE, actor)
                write_through = True
            nxt.enter(actor, new_state)
        # The write retires: this value is now the latest.  Any other
        # valid copy is stale (no update protocols in this model);
        # memory is fresh only for a write-through retirement.
        for index, state in enumerate(states):
            nxt.fresh[index] = index == actor and state is not State.INVALID
        nxt.mem_fresh = write_through
        return nxt.freeze(), None

    def _evict(self, model: ModelState, actor: int):
        state = model.states[actor]
        if state is State.INVALID:
            return model, None
        fresh = model.fresh
        nxt = _Scratch(self.steps, model, self.directory)
        if state.is_dirty:
            nxt.mem_fresh = fresh[actor]
        elif (
            fresh[actor]
            and not model.mem_fresh
            and not any(f for j, f in enumerate(fresh) if j != actor)
        ):
            # Dropping the only fresh copy without a write-back: a clean
            # copy should always be backed by fresh memory.
            return model, "lost-data"
        nxt.enter(actor, State.INVALID)
        return nxt.freeze(), None


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

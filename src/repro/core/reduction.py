"""Protocol-reduction algebra (Section 2 of the paper).

Integrating heterogeneous invalidation protocols restricts the system to
the states *common* to all of them.  The mechanisms available to the
wrappers are exactly the paper's two knobs:

* **read-to-write conversion** on a processor's snoop input — removes the
  transitions *into* S (E->S, M->S) and into O (M->O), because the
  snooping cache believes every foreign transaction is a write and
  drains/invalidates instead of downgrading;
* **shared-signal forcing** on a processor's fill path — ``NEVER``
  removes I->S for protocols with a shared-signal input (MESI, MOESI);
  ``ALWAYS`` removes I->E (forces allocation in S), which is how MESI and
  MOESI are reduced to MSI (Section 2.2).

:func:`reduce_protocols` computes, for a set of native protocols, the
resulting system protocol and the per-processor :class:`WrapperPolicy`
implementing it, following Sections 2.1-2.3 case by case:

=====================  ==========  ======================================
combination            system      mechanism
=====================  ==========  ======================================
MEI + MSI/MESI/MOESI   MEI         convert reads on all S-capable sides,
                                   shared signal NEVER
MSI + MESI/MOESI       MSI         shared signal ALWAYS everywhere;
                                   additionally convert reads on MOESI
                                   sides (blocks M->O / cache-to-cache)
MESI + MOESI           MESI        convert reads on the MOESI side only
homogeneous            unchanged   identity wrappers
=====================  ==========  ======================================

A processor with **no** coherence hardware (``None``) forces the MEI
treatment on every coherent peer — a non-coherent cache cannot observe
invalidations, so no foreign copy may linger in S — and additionally
requires the snoop-logic/interrupt machinery (platform classes PF1/PF2,
Table 1), which :mod:`repro.core.platform` assembles.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Tuple

from ..cache.line import State
from ..cache.protocols import PROTOCOLS
from ..errors import IntegrationError

__all__ = ["SharedMode", "WrapperPolicy", "ReductionResult", "reduce_protocols",
           "PROTOCOL_STATES", "system_states"]


class SharedMode(Enum):
    """How a wrapper drives the shared signal on its processor's fills."""

    NATIVE = "native"    # pass the actual bus shared signal through
    ALWAYS = "always"    # force asserted: read misses allocate in S
    NEVER = "never"      # force deasserted: the S state is unreachable


@dataclass(frozen=True)
class WrapperPolicy:
    """Per-processor wrapper configuration.

    ``convert_read_to_write``
        Present snooped reads to the native cache controller as writes
        (the INV-pin trick on the Intel486, Fig 1 in general).
    ``shared_mode``
        Shared-signal forcing on the fill path.
    ``allow_supply``
        Permit cache-to-cache supply (only meaningful for MOESI, and only
        when the O state survives the reduction).
    """

    convert_read_to_write: bool = False
    shared_mode: SharedMode = SharedMode.NATIVE
    allow_supply: bool = True

    @property
    def is_identity(self) -> bool:
        """True when the wrapper changes nothing (homogeneous platform)."""
        return (
            not self.convert_read_to_write
            and self.shared_mode is SharedMode.NATIVE
            and self.allow_supply
        )


IDENTITY = WrapperPolicy()

#: the state sets of the four integrable protocols (Table in Section 2),
#: as their FSMs declare them
PROTOCOL_STATES = {name: PROTOCOLS[name].states for name in ("MEI", "MSI", "MESI", "MOESI")}

_BY_STATES = {states: name for name, states in PROTOCOL_STATES.items()}


def _canonical_name(states: frozenset) -> str:
    """Name of the protocol whose behaviour matches a state intersection.

    The only unnamed intersection among the four protocols is
    MEI n MSI = {M, I}; operationally it behaves as MEI (the MSI side's
    unremovable I->S allocation acts as the exclusive state under
    read-to-write conversion — Section 2.1.1).
    """
    if states in _BY_STATES:
        return _BY_STATES[states]
    if states == frozenset({State.MODIFIED, State.INVALID}):
        return "MEI"
    raise IntegrationError(f"no protocol matches state set {sorted(s.value for s in states)}")


def system_states(protocols: Sequence[Optional[str]]) -> frozenset:
    """States common to every protocol in the system.

    ``None`` entries (no coherence hardware) contribute the MEI state
    set: a non-coherent write-back cache effectively runs M/E/I locally,
    and its presence forbids foreign Shared copies.
    """
    result = PROTOCOL_STATES["MOESI"]
    for proto in protocols:
        name = "MEI" if proto is None else proto.upper()
        try:
            result = result & PROTOCOL_STATES[name]
        except KeyError:
            raise IntegrationError(f"unknown protocol {proto!r}") from None
    return result


@dataclass(frozen=True)
class ReductionResult:
    """The integrated protocol and the wrapper policy for each processor."""

    system_protocol: str
    policies: Tuple[WrapperPolicy, ...]

    def policy_for(self, index: int) -> WrapperPolicy:
        """Policy of the ``index``-th processor (input order)."""
        return self.policies[index]


def reduce_protocols(protocols: Sequence[Optional[str]]) -> ReductionResult:
    """Integrate ``protocols`` (one entry per processor; None = no hw).

    Returns the system protocol name and one :class:`WrapperPolicy` per
    processor.  Raises :class:`IntegrationError` for unknown protocols.
    """
    if not protocols:
        raise IntegrationError("no processors to integrate")
    names = [None if p is None else p.upper() for p in protocols]
    if any(name == "DRAGON" for name in names):
        # The paper scopes the wrapper methodology to invalidation-based
        # protocols (Section 2); update-based Dragon can only integrate
        # with itself.
        if not all(name == "DRAGON" for name in names):
            raise IntegrationError(
                "update-based protocols (Dragon) cannot be integrated with "
                "invalidation-based peers by the wrapper methodology; the "
                "paper's approach covers invalidation protocols only"
            )
        return ReductionResult(
            system_protocol="DRAGON",
            policies=tuple(IDENTITY for _ in names),
        )
    for name in names:
        if name is not None and name not in PROTOCOL_STATES:
            raise IntegrationError(f"unknown protocol {name!r}")

    target = system_states(names)
    system = _canonical_name(target)
    has_shared = State.SHARED in target
    has_exclusive = State.EXCLUSIVE in target
    has_owned = State.OWNED in target

    policies = []
    for name in names:
        if name is None:
            # The snoop-logic path, not a wrapper, covers this processor;
            # an identity policy is recorded for uniformity.
            policies.append(IDENTITY)
            continue
        own = PROTOCOL_STATES[name]
        convert = False
        shared_mode = SharedMode.NATIVE
        if not has_shared and State.SHARED in own:
            # Section 2.1: strip S via conversion; MESI/MOESI additionally
            # need the shared signal held off to kill I->S.  (For MSI the
            # I->S transition is unremovable — the residual S behaves as
            # E because conversion guarantees it is the only copy.)
            convert = True
            if name in ("MESI", "MOESI"):
                shared_mode = SharedMode.NEVER
        elif (
            not has_exclusive
            and State.EXCLUSIVE in own
            and name in ("MESI", "MOESI")
        ):
            # Section 2.2: strip E by forcing the shared signal (only
            # meaningful for protocols that sample it on fills).
            shared_mode = SharedMode.ALWAYS
            if State.OWNED in own:
                # ...and block M->O / cache-to-cache on the MOESI side.
                convert = True
        elif not has_owned and State.OWNED in own:
            # Section 2.3: MESI x MOESI — conversion on the MOESI side
            # blocks M->O (and, as the paper notes, E->S as a side
            # effect); I->S stays allowed.
            convert = True
        # allow_supply only constrains MOESI members; it stays vacuously
        # True for protocols that never supply.
        allow_supply = State.OWNED not in own or (has_owned and not convert)
        policies.append(
            WrapperPolicy(
                convert_read_to_write=convert,
                shared_mode=shared_mode,
                allow_supply=allow_supply,
            )
        )
    return ReductionResult(system_protocol=system, policies=tuple(policies))

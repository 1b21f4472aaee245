"""The declarative resource model behind the concurrency rules.

The paper's whole contribution is a discipline for *who may hold what*
— the bus tenure, the cache tag/data port, the snoop window, the drain
path — and the concurrency rules check that discipline statically.
This module names those resources declaratively: each
:class:`ResourceSpec` describes how an acquire and a release look in
the AST (method names plus a regex over the unparsed receiver
expression), what kind of resource it is, and which semantic flags the
dataflow passes should apply.

The shipped table is :data:`DEFAULT_RESOURCES`; a resource new to the
simulator gets a spec there and the three rules pick it up with no rule
changes.  See ``docs/static-analysis.md`` for the table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Tuple

__all__ = ["ResourceSpec", "DEFAULT_RESOURCES"]

#: resource kinds the passes understand
KINDS = ("mutex", "arbiter", "slot", "completion", "registry")


@dataclass(frozen=True)
class ResourceSpec:
    """One named resource and its AST acquire/release shape.

    ``acquire_methods`` / ``release_methods`` match attribute calls
    (``<receiver>.<method>(...)``) whose unparsed ``<receiver>`` text
    matches the ``receiver`` regex; an acquire is *blocking* when the
    call is the value of a ``yield``.  The remaining fields steer the
    dataflow passes:

    * ``cross_master`` — waiting on this resource waits on another
      master's (or another process's) progress; only such waits count
      for ``hold-across-yield`` and the waits-for graph.
    * ``deny_hold_across_wait`` — the deny-list bit: holding this
      resource across a cross-master blocking yield is a finding
      (the PR 6 controller-port deadlock shape).
    * ``transfer_methods`` — calls that hand ownership to a freshly
      spawned process (e.g. ``sim.process(...)``); the held resource is
      considered transferred, not leaked, on that edge.
    * ``wait_attr`` — ``yield sim.all_of([x.<wait_attr> ...])`` counts
      as a blocking wait on this resource (snoop-reply completions).
    * ``providers`` — names of the functions that make the resource
      available again (succeed the completion / release the slot); the
      wait-cycle pass analyses them for what they *must* block on.
    * ``ceiling_anchors`` — calls that bound re-request loops (the
      ARTRY retry ceiling): a waits-for edge whose wait sits in such a
      loop ends in a diagnosed livelock, never a silent deadlock, so it
      cannot close a reportable cycle.
    * ``registry_attrs`` / ``callback_methods`` — for ``registry``-kind
      resources only: iterating the *live* attribute while invoking the
      callbacks is a window-discipline violation (the PR 8
      detach-during-snoop-window race); iterate a snapshot instead.
    """

    id: str
    kind: str
    doc: str = ""
    acquire_methods: Tuple[str, ...] = ()
    release_methods: Tuple[str, ...] = ()
    receiver: str = r".^"  # matches nothing unless overridden
    cross_master: bool = False
    deny_hold_across_wait: bool = False
    transfer_methods: Tuple[str, ...] = ()
    wait_attr: str = ""
    providers: Tuple[str, ...] = ()
    ceiling_anchors: Tuple[str, ...] = ()
    registry_attrs: Tuple[str, ...] = ()
    callback_methods: Tuple[str, ...] = ()
    _receiver_re: "re.Pattern[str]" = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown resource kind {self.kind!r} (of {KINDS})")
        object.__setattr__(self, "_receiver_re", re.compile(self.receiver))

    def matches_receiver(self, text: str) -> bool:
        return bool(self._receiver_re.search(text))


#: the shipped resource table (see docs/static-analysis.md)
DEFAULT_RESOURCES: Tuple[ResourceSpec, ...] = (
    ResourceSpec(
        id="bus-tenure",
        kind="arbiter",
        doc="a tenure's arbitration domain: the bus or a directory home bank",
        acquire_methods=("request",),
        release_methods=("release",),
        receiver=r"(^|\.)arbiter$",
        cross_master=True,
        ceiling_anchors=("_check_retry_ceiling",),
    ),
    ResourceSpec(
        id="cache-port",
        kind="mutex",
        doc="the cache tag/data port serialising processor vs drain access",
        acquire_methods=("acquire",),
        release_methods=("release",),
        receiver=r"(^|\.)port$",
        cross_master=True,
        deny_hold_across_wait=True,
    ),
    ResourceSpec(
        id="window-slot",
        kind="slot",
        doc="one data-tenure slot of the split bus's bounded in-flight window",
        acquire_methods=("_acquire_slot",),
        release_methods=("_release_slot",),
        receiver=r"^self$",
        cross_master=True,
        transfer_methods=("process",),
        providers=("_data_tenure",),
    ),
    ResourceSpec(
        id="drain-completion",
        kind="completion",
        doc="a snoop-reply completion: the requester's ARTRY back-off target",
        cross_master=True,
        wait_attr="completion",
        providers=("_drain_worker",),
    ),
    ResourceSpec(
        id="snoop-window",
        kind="registry",
        doc="the bus snooper list walked during an address-phase window",
        registry_attrs=("snoopers",),
        callback_methods=("snoop",),
    ),
)

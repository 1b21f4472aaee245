"""``hold-across-yield``: the deny-list and window-discipline checks.

Three shapes of the same hazard — touching shared coherence state
while another process can run:

1. **Deny-listed hold.**  A resource with ``deny_hold_across_wait``
   (the cache tag/data port) held across a blocking yield that waits
   on another master's progress — directly, or through a ``yield
   from`` chain whose waits-summary says the callee may block on the
   bus, a bank, the split window or a drain completion.  This is the
   PR 6 cross-drain deadlock shape: the processor's transaction parks
   on the bus holding the port while the drain the bus is waiting for
   needs that port.  In-tree holds that are deliberate (Section 3's
   retry-first semantics) carry justified waivers.

2. **Live-registry walk.**  Iterating a ``registry``-kind resource's
   live attribute (``self.snoopers``) while invoking its callback
   (``snoop``): a callback may detach a snooper
   mid-window (fault teardown), skipping or double-visiting entries —
   the PR 8 detach-during-snoop-window race.  Walk a snapshot
   (``tuple(self.snoopers)``) instead.

3. **Stale drain capture.**  A DRAIN-priority transaction whose commit
   closure applies coherence state without comparing the line against
   a pre-captured data snapshot: with the port-free drain policy the
   processor can store into the line while the push is on the bus, and
   an unguarded commit writes the stale capture back — the PR 8
   window-drain lost-update race.  The fix shape the pass looks for is
   ``snapshot = tuple(<line>.data)`` before the transact plus a
   comparison against it inside the closure.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional

from ..core import Finding, Project, Rule, register
from .cfg import walk_no_defs
from .model import ConcurAnalysis, expr_text

__all__ = ["HoldAcrossYieldRule"]


@register
class HoldAcrossYieldRule(Rule):
    id = "hold-across-yield"
    description = (
        "deny-listed resources are not held across cross-master blocking "
        "yields; snoop windows iterate snapshots and drain commits refuse "
        "stale captures"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        analysis = ConcurAnalysis.of(project)
        findings: List[Finding] = []
        findings.extend(self._deny_list_findings(analysis))
        findings.extend(self._live_registry_findings(analysis))
        findings.extend(self._stale_capture_findings(analysis))
        return findings

    # -- 1: deny-listed resource held across a cross-master wait -----------
    def _deny_list_findings(self, analysis: ConcurAnalysis) -> List[Finding]:
        deny = {
            sid for sid, spec in analysis.registry.items() if spec.deny_hold_across_wait
        }
        if not deny:
            return []
        findings: List[Finding] = []
        for fi in analysis.functions:
            if not any(key[0] in deny for key in fi.acquire_sites):
                continue
            held_in = analysis.may_held(fi)
            for node in fi.cfg.nodes:
                ev = node.events
                if ev is None:
                    continue
                held = sorted(
                    key for key in (held_in.get(node) or ()) if key[0] in deny
                )
                if not held:
                    continue
                waited = {}
                for sid in sorted(ev.waits):
                    spec = analysis.registry.get(sid)
                    if spec is not None and spec.cross_master:
                        waited.setdefault(sid, "")
                for name in sorted(ev.delegates):
                    for target in analysis._delegate_targets(name, fi):
                        for sid in sorted(analysis.waits_summary(target)):
                            spec = analysis.registry.get(sid)
                            if spec is not None and spec.cross_master:
                                waited.setdefault(sid, name)
                waited = {sid: via for sid, via in waited.items()
                          if sid not in {key[0] for key in held}}
                if not waited:
                    continue
                for key in held:
                    sid, receiver = key
                    vias = sorted({via for via in waited.values() if via})
                    via_text = f" (via {', '.join(vias)})" if vias else ""
                    findings.append(
                        self.finding(
                            fi.path,
                            node.line,
                            f"{sid} (receiver {receiver!r}, acquired at line "
                            f"{fi.acquire_sites.get(key, '?')}) is held across a "
                            f"blocking yield that waits on "
                            f"{', '.join(sorted(waited))}{via_text}; release "
                            f"before waiting, or route the drain around the "
                            f"hold (drain-policy bypass)",
                        )
                    )
        return findings

    # -- 2: live-registry iteration inside a callback window ----------------
    def _live_registry_findings(self, analysis: ConcurAnalysis) -> List[Finding]:
        registry_specs = [
            spec for spec in analysis.registry.values() if spec.kind == "registry"
        ]
        if not registry_specs:
            return []
        findings: List[Finding] = []
        for fi in analysis.functions:
            assigns = self._simple_assigns(fi.node)
            for stmt in fi.node.body:
                for sub in walk_no_defs(stmt):
                    if not isinstance(sub, (ast.For, ast.AsyncFor)):
                        continue
                    for spec in registry_specs:
                        if not self._calls_callbacks(sub, spec):
                            continue
                        live = self._live_registry_expr(sub.iter, spec, assigns)
                        if live is None:
                            continue
                        findings.append(
                            self.finding(
                                fi.path,
                                sub.lineno,
                                f"{spec.id}: iterating the live {live!r} "
                                f"while invoking "
                                f"{'/'.join(spec.callback_methods)} — a "
                                f"callback can detach an entry mid-window; "
                                f"iterate a snapshot (tuple({live}))",
                            )
                        )
        return findings

    @staticmethod
    def _simple_assigns(func: ast.AST) -> dict:
        """name -> last assigned value expression (single-target assigns)."""
        assigns = {}
        for stmt in func.body:
            for sub in walk_no_defs(stmt):
                if (
                    isinstance(sub, ast.Assign)
                    and len(sub.targets) == 1
                    and isinstance(sub.targets[0], ast.Name)
                ):
                    assigns[sub.targets[0].id] = sub.value
        return assigns

    @staticmethod
    def _calls_callbacks(loop: ast.AST, spec) -> bool:
        for sub in walk_no_defs(loop):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in spec.callback_methods
            ):
                return True
        return False

    def _live_registry_expr(self, iter_expr, spec, assigns) -> Optional[str]:
        """The live registry expression iterated, or None if snapshotted."""
        if isinstance(iter_expr, ast.Attribute) and iter_expr.attr in spec.registry_attrs:
            return expr_text(iter_expr)
        if isinstance(iter_expr, ast.Name):
            value = assigns.get(iter_expr.id)
            if value is not None:
                # One level of local indirection: a name bound to the
                # bare attribute is still live; bound to a call
                # (tuple/list/sorted) it is a snapshot.
                if isinstance(value, ast.Attribute) and value.attr in spec.registry_attrs:
                    return expr_text(value)
        return None

    # -- 3: drain commits that apply a stale capture -------------------------
    def _stale_capture_findings(self, analysis: ConcurAnalysis) -> List[Finding]:
        findings: List[Finding] = []
        for fi in analysis.functions:
            for stmt in fi.node.body:
                for sub in walk_no_defs(stmt):
                    if not isinstance(sub, ast.Call):
                        continue
                    if not self._is_drain_transact(sub):
                        continue
                    closure = self._commit_closure(sub, fi.node)
                    if closure is None:
                        continue
                    if not self._mutates_state(closure):
                        continue
                    if self._guards_against_stale(closure, fi.node):
                        continue
                    findings.append(
                        self.finding(
                            fi.path,
                            closure.lineno,
                            f"drain commit {closure.name!r} applies coherence "
                            f"state without refusing a stale capture: with a "
                            f"port-free drain the line can change while the "
                            f"push is on the bus — snapshot the data before "
                            f"the transact and compare inside the commit",
                        )
                    )
        return findings

    @staticmethod
    def _is_drain_transact(call: ast.Call) -> bool:
        """A ``transact``-family call with ``priority=Priority.DRAIN``."""
        name = ""
        if isinstance(call.func, ast.Attribute):
            name = call.func.attr
        elif isinstance(call.func, ast.Name):
            name = call.func.id
        if "transact" not in name:
            return False
        for kw in call.keywords:
            if (
                kw.arg == "priority"
                and isinstance(kw.value, ast.Attribute)
                and kw.value.attr == "DRAIN"
            ):
                return True
        return False

    @staticmethod
    def _commit_closure(call: ast.Call, func: ast.AST) -> Optional[ast.FunctionDef]:
        """The local closure passed as ``commit=``, when there is one."""
        commit_name = None
        for kw in call.keywords:
            if kw.arg == "commit" and isinstance(kw.value, ast.Name):
                commit_name = kw.value.id
        if commit_name is None:
            return None
        for stmt in func.body:
            for sub in walk_no_defs(stmt):
                if isinstance(sub, ast.FunctionDef) and sub.name == commit_name:
                    return sub
        return None

    @staticmethod
    def _mutates_state(closure: ast.FunctionDef) -> bool:
        """The closure applies coherence state (the hazardous commits)."""
        for stmt in closure.body:
            for sub in walk_no_defs(stmt):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and "state" in sub.func.attr
                ):
                    return True
                if isinstance(sub, (ast.Assign, ast.AugAssign)):
                    targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                    for target in targets:
                        if isinstance(target, ast.Attribute) and target.attr == "state":
                            return True
        return False

    @staticmethod
    def _guards_against_stale(closure: ast.FunctionDef, func: ast.AST) -> bool:
        """A comparison against a pre-captured ``.data`` snapshot exists.

        Accepts either shape: the closure compares ``.data`` directly,
        or it compares against a local name the enclosing function
        bound from an expression involving ``.data``.
        """
        snapshot_names = set()
        for stmt in func.body:
            for sub in walk_no_defs(stmt):
                if (
                    isinstance(sub, ast.Assign)
                    and len(sub.targets) == 1
                    and isinstance(sub.targets[0], ast.Name)
                    and any(
                        isinstance(part, ast.Attribute) and part.attr == "data"
                        for part in ast.walk(sub.value)
                    )
                ):
                    snapshot_names.add(sub.targets[0].id)
        for stmt in closure.body:
            for sub in walk_no_defs(stmt):
                if not isinstance(sub, ast.Compare):
                    continue
                for part in ast.walk(sub):
                    if isinstance(part, ast.Attribute) and part.attr == "data":
                        return True
                    if isinstance(part, ast.Name) and part.id in snapshot_names:
                        return True
        return False

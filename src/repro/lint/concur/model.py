"""The shared whole-program model behind the three concurrency rules.

One :class:`ConcurAnalysis` per lint run (cached on the
:class:`~repro.lint.core.Project`) builds:

* a **function index** over every def in the project (qualified names,
  generator-ness, delegation targets) — the entry points the ISSUE
  names (``Process`` bootstraps, ``yield from`` chains across the bus,
  fabric, controller and faults layers) all resolve through it;
* per-function **yield-point CFGs** (:mod:`.cfg`) with per-node
  resource events classified against the declarative registry
  (:mod:`.resources`): blocking acquires, releases, ownership
  transfers, classified waits, and ``yield from`` delegation;
* **interprocedural summaries**: ``waits_summary`` (which resources a
  call *may* block on, following ``yield from`` and generator
  tail-calls like ``return self.bus.transact(...)``) and
  ``must_waits`` (which resources every normal completion *must* have
  blocked on — the strong edges of the waits-for graph);
* the dataflow passes the rules consume: per-site may-held sets
  (``resource-release``, ``hold-across-yield``) and the static
  waits-for graph with ceiling/bypass breakers (``wait-cycle``).

Name resolution is by bare method name, merging all same-named defs —
a deliberate over-approximation (a fabric's tenure hooks, such as the
split bus's ``_data_after_commit``, merge with the bus's own; a caller
may reach any fabric).  Held-sets are
intraprocedural: every in-tree acquire/release pair is function-local
(or explicitly transferred), which the ``resource-release`` pass
itself enforces.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..core import Project
from .cfg import CFG, NORMAL, Node, walk_no_defs
from .resources import DEFAULT_RESOURCES, ResourceSpec

__all__ = ["ConcurAnalysis", "FunctionInfo", "NodeEvents", "WaitEdge", "expr_text"]

#: modules the analyzer never inspects (the analyzer itself: its
#: docstrings and pattern tables are full of the shapes it hunts)
EXEMPT_PREFIXES = ("lint/",)

#: a held-resource key: (resource id, unparsed receiver text)
Key = Tuple[str, str]

#: yields of these kernel primitives never wait on another master
_NEUTRAL_YIELDS = ("timeout", "any_of", "event")


def expr_text(node: Optional[ast.AST]) -> str:
    """Canonical source text of an expression (receiver matching)."""
    if node is None:
        return ""
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - malformed synthetic trees
        return ""


def call_name(node: ast.AST) -> str:
    """The terminal name of a call (``self.bus.transact(...)`` -> ``transact``)."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute):
            return func.attr
        if isinstance(func, ast.Name):
            return func.id
    return ""


class NodeEvents:
    """The resource events one CFG node performs."""

    __slots__ = ("acquires", "releases", "transfers", "waits", "delegates", "unclassified")

    def __init__(self):
        #: [(key, line, blocking)] — acquire-method calls
        self.acquires: List[Tuple[Key, int, bool]] = []
        #: keys released by this node
        self.releases: Set[Key] = set()
        #: resource ids whose ownership this node hands to a new process
        self.transfers: Set[str] = set()
        #: resource id -> line of a classified blocking wait
        self.waits: Dict[str, int] = {}
        #: names this node delegates to (yield from / generator tail-call)
        self.delegates: Set[str] = set()
        #: the node blocks on something the model cannot classify
        self.unclassified = False


class FunctionInfo:
    """One def in the project, with its lazily built CFG."""

    __slots__ = ("module", "node", "qualname", "nested", "is_generator",
                 "has_delegates", "_cfg", "acquire_sites", "ceiling_stmts")

    def __init__(self, module, node, qualname: str, nested: bool):
        self.module = module
        self.node = node
        self.qualname = qualname
        self.nested = nested
        self.is_generator = False
        self.has_delegates = False
        for stmt in node.body:
            for sub in walk_no_defs(stmt):
                if isinstance(sub, (ast.Yield, ast.YieldFrom)):
                    self.is_generator = True
                if isinstance(sub, ast.YieldFrom):
                    self.has_delegates = True
                if isinstance(sub, ast.Return) and isinstance(sub.value, ast.Call):
                    self.has_delegates = True
        self._cfg: Optional[CFG] = None
        #: key -> first acquire line (for messages)
        self.acquire_sites: Dict[Key, int] = {}
        #: id()s of statements inside a ceiling-anchored loop
        self.ceiling_stmts: FrozenSet[int] = frozenset()

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def path(self) -> str:
        return self.module.path

    @property
    def cfg(self) -> CFG:
        if self._cfg is None:
            self._cfg = CFG(self.node)
        return self._cfg

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FunctionInfo {self.path}:{self.qualname}>"


class WaitEdge:
    """One edge of the static waits-for graph.

    ``src`` is held (or, for ``strong`` provider edges, is being
    provided) while progress requires ``dst``.  ``ceiling`` marks waits
    inside a retry-ceiling loop — bounded, so a livelock diagnosis, not
    a silent deadlock; such an edge cannot close a reportable cycle.
    """

    __slots__ = ("src", "dst", "path", "line", "strong", "ceiling", "via")

    def __init__(self, src, dst, path, line, strong=False, ceiling=False, via=""):
        self.src = src
        self.dst = dst
        self.path = path
        self.line = line
        self.strong = strong
        self.ceiling = ceiling
        self.via = via

    def describe(self) -> str:
        if self.strong:
            return (
                f"providing {self.src} must first block on {self.dst} "
                f"(provider {self.via}, {self.path}:{self.line})"
            )
        via = f" via {self.via}" if self.via else ""
        return (
            f"{self.src} is held while waiting on {self.dst}{via} "
            f"({self.path}:{self.line})"
        )


class ConcurAnalysis:
    """The whole-program concurrency model, shared by the three rules."""

    def __init__(self, project: Project, registry: Optional[Dict[str, ResourceSpec]] = None):
        self.project = project
        self.registry: Dict[str, ResourceSpec] = (
            dict(registry)
            if registry is not None
            else {spec.id: spec for spec in DEFAULT_RESOURCES}
        )
        self.functions: List[FunctionInfo] = []
        self.by_name: Dict[str, List[FunctionInfo]] = {}
        self._waits_memo: Dict[FunctionInfo, Dict[str, Tuple[str, int]]] = {}
        self._must_memo: Dict[FunctionInfo, Dict[str, Tuple[str, int]]] = {}
        self._held_memo: Dict[FunctionInfo, Dict[Node, FrozenSet[Key]]] = {}
        self._ceiling_anchors = frozenset(
            anchor for spec in self.registry.values() for anchor in spec.ceiling_anchors
        )
        self._collect()

    @classmethod
    def of(cls, project: Project) -> "ConcurAnalysis":
        cached = getattr(project, "_concur_analysis", None)
        if cached is None:
            cached = cls(project)
            project._concur_analysis = cached
        return cached

    # -- index construction ------------------------------------------------
    def _collect(self) -> None:
        for module in self.project.modules:
            if any(module.path.startswith(p) for p in EXEMPT_PREFIXES):
                continue
            self._collect_into(module, module.tree.body, "", nested=False)
        for fi in self.functions:
            self._attach_events(fi)

    def _collect_into(self, module, body, prefix: str, nested: bool) -> None:
        for item in body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = prefix + item.name
                fi = FunctionInfo(module, item, qual, nested)
                self.functions.append(fi)
                self.by_name.setdefault(item.name, []).append(fi)
                self._collect_into(module, item.body, qual + ".", nested=True)
            elif isinstance(item, ast.ClassDef):
                self._collect_into(module, item.body, prefix + item.name + ".", nested)
            else:
                for attr in ("body", "orelse", "finalbody"):
                    sub = getattr(item, attr, None)
                    if sub:
                        self._collect_into(module, sub, prefix, nested)
                for handler in getattr(item, "handlers", ()) or ():
                    self._collect_into(module, handler.body, prefix, nested)

    # -- event classification ----------------------------------------------
    def _attach_events(self, fi: FunctionInfo) -> None:
        cfg = fi.cfg
        for node in cfg.nodes:
            node.events = self._scan_node(node)
            for key, line, _blocking in node.events.acquires:
                fi.acquire_sites.setdefault(key, line)
        # Syntactic kill: a release anywhere inside a finally suite —
        # even under a guard like ``if held:`` — counts as releasing
        # the moment the suite is entered.  Applying it at fin_enter
        # (not just fin_exit) also covers exception edges raised by the
        # suite's own earlier statements.
        for node in cfg.nodes:
            if node.kind == "fin_exit" and node.fin_nodes:
                kills: Set[Key] = set()
                for inner in node.fin_nodes[1:]:
                    kills |= inner.events.releases
                node.fin_nodes[0].events.releases |= kills
                node.events.releases |= kills
        # Ceiling-anchored loops: waits inside are bounded re-requests.
        if self._ceiling_anchors:
            marked: Set[int] = set()
            for stmt in fi.node.body:
                for sub in walk_no_defs(stmt):
                    if isinstance(sub, (ast.While, ast.For)):
                        anchored = any(
                            call_name(inner) in self._ceiling_anchors
                            for inner in walk_no_defs(sub)
                            if isinstance(inner, ast.Call)
                        )
                        if anchored:
                            marked |= {id(inner) for inner in walk_no_defs(sub)}
            fi.ceiling_stmts = frozenset(marked)

    def _scan_node(self, node: Node) -> NodeEvents:
        ev = NodeEvents()
        if not node.scopes:
            return ev
        yielded_calls: Set[int] = set()
        for scope in node.scopes:
            for sub in walk_no_defs(scope):
                if isinstance(sub, ast.Yield) and isinstance(sub.value, ast.Call):
                    yielded_calls.add(id(sub.value))
        for scope in node.scopes:
            for sub in walk_no_defs(scope):
                if isinstance(sub, ast.Yield):
                    self._classify_yield(sub, ev)
                elif isinstance(sub, ast.YieldFrom):
                    name = call_name(sub.value)
                    if name:
                        ev.delegates.add(name)
                    else:
                        ev.unclassified = True
                elif isinstance(sub, ast.Return) and isinstance(sub.value, ast.Call):
                    name = call_name(sub.value)
                    if name:
                        ev.delegates.add(name)
                elif isinstance(sub, ast.Call):
                    self._classify_call(sub, ev, blocking=id(sub) in yielded_calls)
        return ev

    def _classify_yield(self, y: ast.Yield, ev: NodeEvents) -> None:
        value = y.value
        if not (isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute)):
            ev.unclassified = True
            return
        attr = value.func.attr
        receiver = expr_text(value.func.value)
        for spec in self.registry.values():
            if attr in spec.acquire_methods and spec.matches_receiver(receiver):
                ev.waits.setdefault(spec.id, value.lineno)
                return
        if attr == "all_of":
            found = False
            for sub in ast.walk(value):
                if isinstance(sub, ast.Attribute):
                    for spec in self.registry.values():
                        if spec.wait_attr and sub.attr == spec.wait_attr:
                            ev.waits.setdefault(spec.id, value.lineno)
                            found = True
            if not found:
                ev.unclassified = True
            return
        if attr not in _NEUTRAL_YIELDS:
            ev.unclassified = True

    def _classify_call(self, call: ast.Call, ev: NodeEvents, blocking: bool) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        attr = func.attr
        receiver = expr_text(func.value)
        for spec in self.registry.values():
            if attr in spec.acquire_methods and spec.matches_receiver(receiver):
                ev.acquires.append(((spec.id, receiver), call.lineno, blocking))
            if attr in spec.release_methods and spec.matches_receiver(receiver):
                ev.releases.add((spec.id, receiver))
            if attr in spec.transfer_methods:
                ev.transfers.add(spec.id)

    # -- interprocedural summaries -------------------------------------------
    def _delegate_targets(self, name: str, origin: FunctionInfo) -> List[FunctionInfo]:
        return [
            target
            for target in self.by_name.get(name, ())
            if target is not origin and (target.is_generator or target.has_delegates)
        ]

    def waits_summary(
        self, fi: FunctionInfo, _stack: Optional[frozenset] = None
    ) -> Dict[str, Tuple[str, int]]:
        """Resources ``fi`` *may* block on (transitively), id -> one site."""
        memo = self._waits_memo.get(fi)
        if memo is not None:
            return memo
        stack = _stack or frozenset()
        if fi in stack:
            return {}
        stack = stack | {fi}
        result: Dict[str, Tuple[str, int]] = {}
        for node in fi.cfg.nodes:
            ev = node.events
            if ev is None:
                continue
            for sid, line in sorted(ev.waits.items()):
                result.setdefault(sid, (fi.path, line))
            for name in sorted(ev.delegates):
                for target in self._delegate_targets(name, fi):
                    for sid, site in self.waits_summary(target, stack).items():
                        result.setdefault(sid, site)
        self._waits_memo[fi] = result
        return result

    def _contributions(
        self, node: Node, fi: FunctionInfo, stack: frozenset
    ) -> Dict[str, Tuple[str, int]]:
        """Resources this node *must* block on before completing normally."""
        ev = node.events
        if ev is None:
            return {}
        result: Dict[str, Tuple[str, int]] = {
            sid: (fi.path, line) for sid, line in sorted(ev.waits.items())
        }
        for name in sorted(ev.delegates):
            targets = self._delegate_targets(name, fi)
            if not targets:
                continue
            # The callee is one of the same-named defs: only resources
            # every candidate must block on are guaranteed.
            merged: Optional[Dict[str, Tuple[str, int]]] = None
            for target in targets:
                one = self.must_waits(target, stack)
                if merged is None:
                    merged = dict(one)
                else:
                    merged = {sid: site for sid, site in merged.items() if sid in one}
            for sid, site in (merged or {}).items():
                result.setdefault(sid, site)
        return result

    def _must_forward(
        self, fi: FunctionInfo, stack: frozenset
    ) -> Dict[Node, Optional[Dict[str, Tuple[str, int]]]]:
        """Forward all-paths analysis: IN[node] = resources every path
        from entry to node has blocked on (None = unreachable)."""
        cfg = fi.cfg
        contrib = {node: self._contributions(node, fi, stack) for node in cfg.nodes}
        values: Dict[Node, Optional[Dict[str, Tuple[str, int]]]] = {
            node: None for node in cfg.nodes
        }
        values[cfg.entry] = {}
        work = [cfg.entry]
        while work:
            node = work.pop()
            current = values[node]
            if current is None:
                continue
            out = dict(current)
            for sid, site in contrib[node].items():
                out.setdefault(sid, site)
            for succ, _kind in node.succ:
                existing = values[succ]
                if existing is None:
                    values[succ] = dict(out)
                    work.append(succ)
                else:
                    met = {sid: site for sid, site in existing.items() if sid in out}
                    if met != existing:
                        values[succ] = met
                        work.append(succ)
        return values

    def must_waits(
        self, fi: FunctionInfo, _stack: Optional[frozenset] = None
    ) -> Dict[str, Tuple[str, int]]:
        """Resources every *normal* completion of ``fi`` blocked on."""
        memo = self._must_memo.get(fi)
        if memo is not None:
            return memo
        stack = _stack or frozenset()
        if fi in stack:
            return {}
        stack = stack | {fi}
        values = self._must_forward(fi, stack)
        result = values[fi.cfg.exit] or {}
        self._must_memo[fi] = result
        return result

    def must_at_providers(
        self, fi: FunctionInfo, spec: ResourceSpec
    ) -> Optional[Dict[str, Tuple[str, int]]]:
        """Resources every path to a provide-site of ``spec`` blocks on.

        Provide-sites are ``.succeed()`` calls for completion kinds and
        matching release calls for slot kinds.  Returns None when
        ``fi`` has no provide-site.
        """
        targets = [
            node for node in fi.cfg.nodes if self._provides(node, spec)
        ]
        if not targets:
            return None
        values = self._must_forward(fi, frozenset({fi}))
        merged: Optional[Dict[str, Tuple[str, int]]] = None
        for node in targets:
            at = values[node]
            if at is None:
                continue  # unreachable provide-site constrains nothing
            if merged is None:
                merged = dict(at)
            else:
                merged = {sid: site for sid, site in merged.items() if sid in at}
        return merged or {}

    def _provides(self, node: Node, spec: ResourceSpec) -> bool:
        if spec.kind == "completion":
            for scope in node.scopes:
                for sub in walk_no_defs(scope):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr == "succeed"
                    ):
                        return True
            return False
        if spec.kind == "slot":
            ev = node.events
            return ev is not None and any(key[0] == spec.id for key in ev.releases)
        return False

    # -- may-held dataflow ----------------------------------------------------
    def may_held(self, fi: FunctionInfo) -> Dict[Node, FrozenSet[Key]]:
        """IN[node] = resources possibly held when the node starts.

        Acquire gens apply on *normal* out-edges only (a blocking
        acquire that raises never granted); releases and transfers
        likewise.  The syntactic finally kill (see :mod:`.cfg`) applies
        on every out-edge of a ``fin_exit``.
        """
        memo = self._held_memo.get(fi)
        if memo is not None:
            return memo
        cfg = fi.cfg
        values: Dict[Node, Optional[FrozenSet[Key]]] = {node: None for node in cfg.nodes}
        values[cfg.entry] = frozenset()
        work = [cfg.entry]
        while work:
            node = work.pop()
            current = values[node]
            if current is None:
                continue
            ev = node.events
            normal_out = current
            if ev is not None:
                if ev.acquires:
                    normal_out = normal_out | {key for key, _line, _b in ev.acquires}
                if ev.releases:
                    normal_out = normal_out - ev.releases
                if ev.transfers:
                    normal_out = frozenset(
                        key for key in normal_out if key[0] not in ev.transfers
                    )
            except_out = current
            if node.kind == "fin_exit" and ev is not None and ev.releases:
                except_out = except_out - ev.releases
            for succ, kind in node.succ:
                flowed = normal_out if kind == NORMAL else except_out
                existing = values[succ]
                joined = flowed if existing is None else (existing | flowed)
                if joined != existing:
                    values[succ] = joined
                    work.append(succ)
        result = {
            node: (value if value is not None else frozenset())
            for node, value in values.items()
        }
        self._held_memo[fi] = result
        return result

    # -- the waits-for graph --------------------------------------------------
    def wait_edges(self) -> List[WaitEdge]:
        """Every edge of the static waits-for graph, deterministic order."""
        edges: List[WaitEdge] = []
        for fi in self.functions:
            held_in = None
            for node in fi.cfg.nodes:
                ev = node.events
                if ev is None:
                    continue
                waited: Dict[str, str] = {}
                for sid in sorted(ev.waits):
                    spec = self.registry.get(sid)
                    if spec is not None and spec.cross_master:
                        waited.setdefault(sid, "")
                for name in sorted(ev.delegates):
                    for target in self._delegate_targets(name, fi):
                        for sid in sorted(self.waits_summary(target)):
                            spec = self.registry.get(sid)
                            if spec is not None and spec.cross_master:
                                waited.setdefault(sid, name)
                if not waited:
                    continue
                if held_in is None:
                    held_in = self.may_held(fi)
                held = held_in.get(node) or frozenset()
                for key in sorted(held):
                    for sid, via in sorted(waited.items()):
                        if key[0] == sid:
                            continue
                        waited_spec = self.registry[sid]
                        ceiling = (
                            node.ast is not None
                            and id(node.ast) in fi.ceiling_stmts
                            and waited_spec.kind in ("arbiter", "slot")
                        )
                        edges.append(
                            WaitEdge(
                                key[0], sid, fi.path, node.line,
                                ceiling=ceiling, via=via,
                            )
                        )
        for spec in self.registry.values():
            for provider_name in spec.providers:
                for fi in self.by_name.get(provider_name, []):
                    must = self.must_at_providers(fi, spec)
                    if not must:
                        continue
                    for sid, site in sorted(must.items()):
                        if sid == spec.id:
                            continue
                        edges.append(
                            WaitEdge(
                                spec.id, sid, site[0], site[1],
                                strong=True, via=fi.qualname,
                            )
                        )
        edges.sort(key=lambda e: (e.src, e.dst, not e.strong, e.ceiling, e.path, e.line))
        return edges

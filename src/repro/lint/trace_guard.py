"""``trace-guard`` — every trace emit sits behind the cached guard.

PR 2's tracing contract: call sites hold a cached
:class:`~repro.sim.tracing.TraceChannel` (``self._trace_x`` /
``tracer.channel("x")``) and test ``channel.enabled`` before building
the record, so a disabled channel costs one attribute load::

    trace = self._trace_bus
    if trace.enabled:
        trace.emit(sim.now, master, "grant", addr=addr)

An unguarded ``emit`` silently pays record-construction (f-strings,
dict building) on every event even when tracing is off — the exact
regression PR 2 removed.  This rule finds ``<receiver>.emit(...)``
calls whose receiver is *trace-like* and which are not enclosed in an
``if``/ternary whose test reads ``<receiver>.enabled``.

A receiver is trace-like when it is:

* an attribute whose name contains ``trace`` or is ``tracer``
  (``self._trace_bus.emit(...)``),
* the direct result of a ``.channel(...)`` call, or
* a local name bound (anywhere in the enclosing function) from one of
  the above (``trace = self._trace_bus``).

Other ``.emit`` methods (the assembler's instruction emitter) are
ignored.  The tracing module itself is exempt (it *implements* emit),
as is the ``exp/`` harness, which drives enabled channels on purpose.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .core import Finding, ModuleSource, Rule, register

__all__ = ["TraceGuardRule"]


def _is_channel_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "channel"
    )


def _is_trace_attr(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and (
        "trace" in node.attr.lower() or node.attr == "tracer"
    )


def _enclosing_function(module: ModuleSource, node: ast.AST):
    for ancestor in module.ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return ancestor
    return module.tree


def _trace_like(module: ModuleSource, receiver: ast.AST, site: ast.AST) -> bool:
    if _is_trace_attr(receiver) or _is_channel_call(receiver):
        return True
    if isinstance(receiver, ast.Name):
        scope = _enclosing_function(module, site)
        for sub in ast.walk(scope):
            if not isinstance(sub, ast.Assign):
                continue
            if not any(
                isinstance(t, ast.Name) and t.id == receiver.id
                for t in sub.targets
            ):
                continue
            if _is_trace_attr(sub.value) or _is_channel_call(sub.value):
                return True
    return False


def _reads_enabled(test: ast.AST, receiver_dump: str) -> bool:
    """True when ``test`` contains ``<receiver>.enabled``."""
    for sub in ast.walk(test):
        if (
            isinstance(sub, ast.Attribute)
            and sub.attr == "enabled"
            and ast.dump(sub.value) == receiver_dump
        ):
            return True
    return False


def _is_guarded(module: ModuleSource, call: ast.Call, receiver: ast.AST) -> bool:
    receiver_dump = ast.dump(receiver)
    child: ast.AST = call
    for ancestor in module.ancestors(call):
        if isinstance(ancestor, ast.If):
            # Only the true branch is guarded; an emit in the orelse of
            # "if trace.enabled" runs exactly when the channel is off.
            in_body = any(
                child is stmt or _contains(stmt, child) for stmt in ancestor.body
            )
            if in_body and _reads_enabled(ancestor.test, receiver_dump):
                return True
        elif isinstance(ancestor, ast.IfExp):
            if ancestor.body is child and _reads_enabled(
                ancestor.test, receiver_dump
            ):
                return True
        elif isinstance(ancestor, ast.BoolOp) and isinstance(ancestor.op, ast.And):
            # "trace.enabled and trace.emit(...)"
            index = next(
                (i for i, v in enumerate(ancestor.values) if v is child), None
            )
            if index is not None and any(
                _reads_enabled(v, receiver_dump) for v in ancestor.values[:index]
            ):
                return True
        child = ancestor
    return False


def _contains(root: ast.AST, target: ast.AST) -> bool:
    return any(sub is target for sub in ast.walk(root))


@register
class TraceGuardRule(Rule):
    """Trace emits must be behind a cached ``channel.enabled`` check."""

    id = "trace-guard"
    description = (
        "tracer/channel emit call sites must test channel.enabled first"
    )
    exempt_paths = ("sim/tracing.py", "exp/", "lint/")

    def visit_module(self, module: ModuleSource) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr == "emit"):
                continue
            receiver = func.value
            if not _trace_like(module, receiver, node):
                continue
            if _is_guarded(module, node, receiver):
                continue
            yield self.finding(
                module.path,
                node.lineno,
                "unguarded trace emit: test the cached channel's .enabled "
                "before emitting (see docs/static-analysis.md)",
            )

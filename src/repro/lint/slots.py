"""``slots`` — hot-path classes must declare ``__slots__``.

PR 1 and PR 2 each recovered double-digit percentages of simulator
throughput by slotting the per-event / per-transaction classes; this
rule keeps that from regressing.  It applies only to the *hot modules* —
the files on the per-access critical path (events, trace records, bus
vocabulary, cache lines/arrays, tenure state).  Within a hot module
every class must either:

* declare ``__slots__`` in its body,
* be a ``@dataclass(slots=True)``,
* subclass an exempt base (``Enum``/``Exception`` families — both are
  framework-managed and never per-event), or
* carry an explicit ``# repro: lint-ok[slots]`` waiver (appropriate for
  the one-per-platform singletons like ``Simulator`` and ``Tracer``,
  where a ``__dict__`` costs nothing per event).

A class that declares ``__slots__`` but subclasses an unslotted local
class still gets a ``__dict__``; the rule checks each class on its own
because the fix (slot the base, or ``__slots__ = ()`` for pure
interfaces) is per-class anyway.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .core import AstRule, Finding, ModuleSource, register

__all__ = ["SlotsRule", "HOT_MODULES"]

#: path suffixes of the modules on the per-access critical path
HOT_MODULES = (
    "sim/kernel.py",
    "sim/tracing.py",
    "cache/line.py",
    "cache/array.py",
    "bus/types.py",
    "bus/asb.py",
    "core/coherence.py",
)

_EXEMPT_BASES = {
    "Enum",
    "IntEnum",
    "StrEnum",
    "Flag",
    "IntFlag",
    "Exception",
    "BaseException",
    "Protocol",
    "ABC",
}


def _base_name(node: ast.AST) -> str:
    """Rightmost identifier of a base expression (``x.y.Enum`` -> Enum)."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _has_exempt_base(cls: ast.ClassDef) -> bool:
    for base in cls.bases:
        name = _base_name(base)
        if name in _EXEMPT_BASES or name.endswith(("Error", "Exception", "Warning")):
            return True
    return False


def _declares_slots(cls: ast.ClassDef) -> bool:
    for stmt in cls.body:
        targets = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    return False


def _is_slotted_dataclass(cls: ast.ClassDef) -> bool:
    for decorator in cls.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        if _base_name(decorator.func) != "dataclass":
            continue
        for keyword in decorator.keywords:
            if (
                keyword.arg == "slots"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            ):
                return True
    return False


@register
class SlotsRule(AstRule):
    """Hot-path classes must be __dict__-free."""

    id = "slots"
    description = "classes in hot-path modules must declare __slots__"
    exempt_paths = ("lint/",)

    def visit_module(self, module: ModuleSource) -> Iterable[Finding]:
        if not module.path.endswith(HOT_MODULES):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if _has_exempt_base(node):
                continue
            if _declares_slots(node) or _is_slotted_dataclass(node):
                continue
            yield self.finding(
                module.path,
                node.lineno,
                f"hot-path class {node.name} has no __slots__ "
                "(declare __slots__, use @dataclass(slots=True), or "
                "waive a singleton with lint-ok[slots])",
            )

"""``process-yield`` — simulation processes yield kernel primitives only.

The kernel's contract (:class:`repro.sim.kernel.Process`) is that a
process generator yields :class:`Event` instances — timeouts, grant
events, ``all_of``/``any_of`` combinators — and nothing else.  Yielding
a bare value (``yield 5``, ``yield (a, b)``, a bare ``yield``) raises
``SimulationError`` at runtime, but only on the first execution of that
path; a rarely-taken branch can hide the bug for a long time.  This
rule finds it statically.

A generator counts as a *process generator* when:

* its name is passed to a ``.process(...)`` call anywhere in the same
  module (``sim.process(self._drain_worker(...))``), or
* it yields the result of a kernel-primitive call —
  ``.timeout()``, ``.event()``, ``.request()``, ``.all_of()``,
  ``.any_of()``, ``.transact()``, ``.wait()`` — which only makes sense
  inside a process, or
* a known process generator ``yield from``-delegates to it
  (transitively).

Inside a process generator the rule flags yields whose value cannot be
an :class:`Event`: literals, f-strings, tuple/list/set/dict displays,
arithmetic/comparison/boolean expressions, lambdas, and the bare
``yield``.  Names, attributes, calls, subscripts and conditionals are
assumed event-valued — the runtime check still backstops those.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Set

from .core import Finding, ModuleSource, Rule, register

__all__ = ["ProcessYieldRule"]

_PRIMITIVE_ATTRS = {
    "timeout",
    "event",
    "request",
    "all_of",
    "any_of",
    "transact",
    "wait",
}

_BAD_VALUE_NODES = (
    ast.Constant,
    ast.JoinedStr,
    ast.Tuple,
    ast.List,
    ast.Set,
    ast.Dict,
    ast.BinOp,
    ast.UnaryOp,
    ast.BoolOp,
    ast.Compare,
    ast.Lambda,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


def _called_name(node: ast.AST) -> str:
    """Function name referenced by a call argument like ``self.worker``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _own_yields(func: ast.AST) -> List[ast.AST]:
    """Yield/YieldFrom nodes of ``func`` itself, not of nested defs."""
    collected: List[ast.AST] = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue  # nested scope: its yields are its own
            if isinstance(child, (ast.Yield, ast.YieldFrom)):
                collected.append(child)
            visit(child)

    visit(func)
    return collected


def _yields_primitive(yields: List[ast.AST]) -> bool:
    for node in yields:
        if isinstance(node, ast.Yield) and isinstance(node.value, ast.Call):
            func = node.value.func
            if isinstance(func, ast.Attribute) and func.attr in _PRIMITIVE_ATTRS:
                return True
    return False


@register
class ProcessYieldRule(Rule):
    """Process generators may only yield kernel events."""

    id = "process-yield"
    description = "simulation processes must yield kernel primitives only"
    exempt_paths = ("lint/",)

    def visit_module(self, module: ModuleSource) -> Iterable[Finding]:
        generators: Dict[str, ast.AST] = {}
        yields_of: Dict[str, List[ast.AST]] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                own = _own_yields(node)
                if own:
                    generators[node.name] = node
                    yields_of[node.name] = own

        # Seed: generators handed to .process(...), or that yield a
        # kernel-primitive call themselves.
        processes: Set[str] = set()
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "process"
            ):
                for arg in node.args:
                    name = _called_name(arg)
                    if name in generators:
                        processes.add(name)
        for name, own in yields_of.items():
            if _yields_primitive(own):
                processes.add(name)

        # Expand through yield-from delegation.
        changed = True
        while changed:
            changed = False
            for name in list(processes):
                for node in yields_of.get(name, ()):
                    if isinstance(node, ast.YieldFrom):
                        target = _called_name(node.value)
                        if target in generators and target not in processes:
                            processes.add(target)
                            changed = True

        for name in sorted(processes):
            for node in yields_of[name]:
                if not isinstance(node, ast.Yield):
                    continue  # yield-from delegates; the target is checked
                value = node.value
                if value is None:
                    yield self.finding(
                        module.path,
                        node.lineno,
                        f"bare yield in process generator {name!r}; "
                        "processes must yield kernel Event instances",
                    )
                elif isinstance(value, _BAD_VALUE_NODES):
                    yield self.finding(
                        module.path,
                        node.lineno,
                        f"process generator {name!r} yields a "
                        f"{type(value).__name__}; processes must yield "
                        "kernel Event instances",
                    )

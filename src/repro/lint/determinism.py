"""``determinism`` — sources of run-to-run nondeterminism in sim logic.

The simulator's contract (PR 2's golden trace, the parallel sweep
cache's content-addressed keys) is that identical inputs produce
byte-identical traces and results.  Four code shapes break that promise
without failing any functional test:

* **iterating a set** (or frozenset) — Python set order depends on hash
  seeding and insertion history; when the loop body schedules events,
  appends to a queue, or builds a report, the output order floats.
  Membership tests and ``sorted(the_set)`` are fine; bare ``for``/
  comprehension iteration is not.
* **``id()`` as an ordering key** — CPython ids are allocation
  addresses; ``sorted(..., key=id)`` differs between runs.  Using
  ``id()`` as a *dict key* (identity maps) is deterministic and allowed.
* **module-level ``random``** — the global RNG is shared, seedable from
  anywhere, and unseeded by default.  Sim logic must use a
  ``random.Random(seed)`` instance.
* **wall-clock reads** — ``time.time()`` and friends inside sim logic
  leak host timing into results.  (The experiment harness under
  ``exp/`` measures wall time on purpose and is exempt.)

Set-typed symbols are recognised syntactically: a name or ``self``
attribute is set-typed when any assignment in the module binds it to a
set display, a set comprehension, or a ``set()``/``frozenset()`` call,
or annotates it as ``Set``/``FrozenSet``/``set``/``frozenset``.
"""

from __future__ import annotations

import ast
from typing import Iterable, Set

from .core import Finding, ModuleSource, Rule, register

__all__ = ["DeterminismRule"]

_WALL_CLOCK = {
    ("time", "time"),
    ("time", "monotonic"),
    ("time", "perf_counter"),
    ("time", "process_time"),
    ("time", "time_ns"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}

_SET_ANNOTATIONS = {"Set", "FrozenSet", "set", "frozenset", "MutableSet", "AbstractSet"}

_ORDERING_FUNCS = {"sorted", "min", "max"}


def _attr_pair(node: ast.AST):
    """(``base``, ``attr``) for a one-level attribute like ``time.time``."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return (node.value.id, node.attr)
    return None


def _is_set_expr(node: ast.AST) -> bool:
    """True for set displays, set comprehensions and set()/frozenset()."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _annotation_is_set(node: ast.AST) -> bool:
    """True when an annotation names a set type (``Set[int]`` etc.)."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id in _SET_ANNOTATIONS
    if isinstance(node, ast.Attribute):
        return node.attr in _SET_ANNOTATIONS
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String annotations: keep it to the simple "Set[...]" shape.
        return node.value.split("[")[0].strip() in _SET_ANNOTATIONS
    return False


def _symbol(node: ast.AST):
    """A stable key for a name or ``self.attr`` target, else None."""
    if isinstance(node, ast.Name):
        return ("name", node.id)
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return ("self", node.attr)
    return None


def _collect_set_symbols(tree: ast.Module) -> Set[tuple]:
    """Symbols bound or annotated as sets anywhere in the module."""
    symbols: Set[tuple] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _is_set_expr(node.value):
            for target in node.targets:
                key = _symbol(target)
                if key is not None:
                    symbols.add(key)
        elif isinstance(node, ast.AnnAssign):
            key = _symbol(node.target)
            if key is None:
                continue
            if _annotation_is_set(node.annotation) or (
                node.value is not None and _is_set_expr(node.value)
            ):
                symbols.add(key)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            if _annotation_is_set(node.annotation):
                symbols.add(("name", node.arg))
    return symbols


@register
class DeterminismRule(Rule):
    """Forbid nondeterministic iteration, ordering, randomness, clocks."""

    id = "determinism"
    description = (
        "no set iteration, id()-based ordering, global random, or "
        "wall-clock reads in simulator logic"
    )
    exempt_paths = ("exp/", "lint/", "service/")

    def visit_module(self, module: ModuleSource) -> Iterable[Finding]:
        set_symbols = _collect_set_symbols(module.tree)
        for node in ast.walk(module.tree):
            yield from self._check_iteration(module, node, set_symbols)
            yield from self._check_ordering_key(module, node)
            yield from self._check_random(module, node)
            yield from self._check_clock(module, node)

    # -- set iteration -----------------------------------------------------
    def _check_iteration(self, module, node, set_symbols) -> Iterable[Finding]:
        iters = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            # A comprehension consumed directly by sorted() is fine: the
            # sort imposes the order the set lacks.
            parent = module.parents.get(node)
            if (
                isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Name)
                and parent.func.id in ("sorted", "frozenset", "set")
                and node in parent.args
            ):
                return
            iters.extend(gen.iter for gen in node.generators)
        for it in iters:
            if _is_set_expr(it) or _symbol(it) in set_symbols:
                yield self.finding(
                    module.path,
                    it.lineno,
                    "iteration over a set is order-nondeterministic; "
                    "iterate sorted(...) or an ordered container",
                )

    # -- id() in ordering --------------------------------------------------
    def _check_ordering_key(self, module, node) -> Iterable[Finding]:
        if not (isinstance(node, ast.Call)):
            return
        is_sort_call = (
            isinstance(node.func, ast.Name) and node.func.id in _ORDERING_FUNCS
        ) or (isinstance(node.func, ast.Attribute) and node.func.attr == "sort")
        if not is_sort_call:
            return
        for keyword in node.keywords:
            if keyword.arg != "key":
                continue
            for sub in ast.walk(keyword.value):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id == "id"
                ) or (isinstance(sub, ast.Name) and sub.id == "id"
                      and not isinstance(sub.ctx, ast.Store)):
                    yield self.finding(
                        module.path,
                        node.lineno,
                        "id() in a sort key orders by allocation address "
                        "(varies run to run); use a stable key",
                    )
                    return

    # -- global random -----------------------------------------------------
    def _check_random(self, module, node) -> Iterable[Finding]:
        pair = _attr_pair(node)
        if pair is None or pair[0] != "random":
            return
        if pair[1] in ("Random", "SystemRandom"):
            return  # instantiating a seeded instance is the approved path
        # Only flag uses, not e.g. assignments shadowing the module.
        if isinstance(node.ctx, ast.Load):
            yield self.finding(
                module.path,
                node.lineno,
                f"random.{pair[1]} uses the unseeded global RNG; "
                "use a random.Random(seed) instance",
            )

    # -- wall clock --------------------------------------------------------
    def _check_clock(self, module, node) -> Iterable[Finding]:
        pair = _attr_pair(node)
        if pair in _WALL_CLOCK and isinstance(node.ctx, ast.Load):
            yield self.finding(
                module.path,
                node.lineno,
                f"wall-clock read {pair[0]}.{pair[1]} in simulator logic; "
                "derive timing from sim.now",
            )

"""Statement-level control-flow graphs with exception edges.

The concurrency rules reason about *paths* — "is the bus released on
every path out of this tenure, including the path where the snoop
window raises?" — so they need more than a statement walk.  This
module builds a small CFG per function:

* nodes are statements (compound statements contribute a *head* node
  covering only their test/iterator expression — their bodies are
  separate nodes);
* every node that can raise (it contains a call, a yield, a raise, an
  assert or a subscript) gets an **exception edge** to the innermost
  handler, ``finally`` or the synthetic ``raise`` exit;
* three synthetic nodes — ``entry``, ``exit`` (normal return) and
  ``raise`` (exception escapes the function) — anchor the analyses.

``finally`` blocks get the treatment the resource passes need: the
suite is built once, entered from normal completion, handler falls
and routed ``return``s alike, and its synthetic ``fin_exit`` node
carries the list of nodes syntactically inside the suite.  The model
layer turns that into a *syntactic kill*: any release anywhere in a
``finally`` — even under an ``if held:`` guard the dataflow cannot
evaluate — counts as releasing at the suite's exit.  That is exactly
the idiom the PR 3 bus fix introduced, and dropping it is what the
mutation matrix checks.

Deliberate approximations (all conservative for the shipped passes):
``break``/``continue`` jump straight to their loop targets without
routing through intervening ``finally`` suites (no such code is in
tree); ``with`` has no implicit exit edge; exception edges are
per-statement, not per-expression; a path that enters a ``finally``
on the exception edge may still leave through its normal exit.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple

__all__ = ["CFG", "Node", "NORMAL", "EXCEPT", "walk_no_defs", "may_raise"]

#: edge kinds: normal flow vs exception propagation
NORMAL = "n"
EXCEPT = "e"

_DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)

#: expression shapes that can raise at runtime (per-statement grain)
_RAISERS = (ast.Call, ast.Yield, ast.YieldFrom, ast.Raise, ast.Assert, ast.Subscript)


def walk_no_defs(root: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into nested defs or lambdas.

    The root itself is always yielded; children of nested function,
    lambda and class definitions belong to a different execution
    context and are skipped.
    """
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEF_NODES):
                continue
            stack.append(child)


def may_raise(scopes: Tuple[ast.AST, ...]) -> bool:
    """True when any scoped expression can raise (statement grain)."""
    for scope in scopes:
        for sub in walk_no_defs(scope):
            if isinstance(sub, _RAISERS):
                return True
    return False


class Node:
    """One CFG node: a statement, or a synthetic anchor.

    ``kind`` is ``"stmt"`` for real statements and one of ``"entry"``,
    ``"exit"``, ``"raise"``, ``"dispatch"`` (exception dispatch of a
    ``try`` with handlers), ``"fin_enter"`` / ``"fin_exit"`` (finally
    suite boundaries) for synthetic nodes.  ``scopes`` holds the AST
    subtrees this node *executes* (a loop head owns its test, not its
    body).  ``events`` is attached later by the model layer.
    """

    __slots__ = ("kind", "ast", "line", "scopes", "succ", "fin_nodes", "events")

    def __init__(self, kind: str, ast_node=None, scopes: Tuple[ast.AST, ...] = (), line: int = 0):
        self.kind = kind
        self.ast = ast_node
        self.line = line
        self.scopes = scopes
        #: outgoing edges: (target, NORMAL | EXCEPT)
        self.succ: List[Tuple["Node", str]] = []
        #: for fin_exit nodes: the nodes syntactically inside the suite
        self.fin_nodes: Tuple["Node", ...] = ()
        self.events = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.kind} line={self.line}>"


class CFG:
    """The control-flow graph of one function definition."""

    __slots__ = ("func", "entry", "exit", "raise_exit", "nodes")

    def __init__(self, func: ast.AST):
        self.func = func
        self.entry = Node("entry", func, (), getattr(func, "lineno", 0))
        self.exit = Node("exit")
        self.raise_exit = Node("raise")
        self.nodes: List[Node] = [self.entry, self.exit, self.raise_exit]
        _Builder(self).run()


class _Builder:
    """Recursive-descent CFG construction.

    ``tails`` threads through the build: the set of nodes whose next
    normal edge targets whatever comes next.  Statement handlers
    return the new tails (empty after ``return``/``raise``/``break``).
    """

    def __init__(self, cfg: CFG):
        self.cfg = cfg
        #: innermost exception target (dispatch, fin_enter or raise exit)
        self.exc_stack: List[Node] = [cfg.raise_exit]
        #: (loop head, collected break nodes), innermost last
        self.loop_stack: List[Tuple[Node, List[Node]]] = []
        #: (fin_enter, flags) of active finally suites, innermost last
        self.fin_stack: List[Tuple[Node, dict]] = []

    def run(self) -> None:
        tails = self.seq(self.cfg.func.body, [self.cfg.entry])
        self.join(tails, self.cfg.exit)

    # -- plumbing ----------------------------------------------------------
    def join(self, tails: List[Node], node: Node, kind: str = NORMAL) -> None:
        for tail in tails:
            tail.succ.append((node, kind))

    def node(self, ast_node, scopes) -> Node:
        scopes = tuple(s for s in scopes if s is not None)
        made = Node("stmt", ast_node, scopes, getattr(ast_node, "lineno", 0))
        self.cfg.nodes.append(made)
        return made

    def marker(self, kind: str, ast_node=None) -> Node:
        made = Node(kind, ast_node, (), getattr(ast_node, "lineno", 0) if ast_node is not None else 0)
        self.cfg.nodes.append(made)
        return made

    def plain(self, stmt, tails, scopes=None) -> Node:
        made = self.node(stmt, scopes if scopes is not None else (stmt,))
        self.join(tails, made)
        if may_raise(made.scopes):
            made.succ.append((self.exc_stack[-1], EXCEPT))
        return made

    def exit_via_finally(self, node: Node) -> None:
        """Route a ``return`` through the innermost finally, if any."""
        if self.fin_stack:
            fin_enter, flags = self.fin_stack[-1]
            node.succ.append((fin_enter, NORMAL))
            flags["routed"] = True
        else:
            node.succ.append((self.cfg.exit, NORMAL))

    # -- statements --------------------------------------------------------
    def seq(self, stmts, tails) -> List[Node]:
        for stmt in stmts:
            tails = self.stmt(stmt, tails)
        return tails

    def stmt(self, s, tails) -> List[Node]:
        if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # Executes as a binding; the body runs in another context.
            made = self.node(s, ())
            self.join(tails, made)
            return [made]
        if isinstance(s, ast.Return):
            made = self.plain(s, tails)
            made.succ = [edge for edge in made.succ if edge[1] == EXCEPT]
            self.exit_via_finally(made)
            return []
        if isinstance(s, ast.Raise):
            made = self.node(s, (s,))
            self.join(tails, made)
            made.succ.append((self.exc_stack[-1], EXCEPT))
            return []
        if isinstance(s, ast.Break):
            made = self.node(s, ())
            self.join(tails, made)
            if self.loop_stack:
                self.loop_stack[-1][1].append(made)
            return []
        if isinstance(s, ast.Continue):
            made = self.node(s, ())
            self.join(tails, made)
            if self.loop_stack:
                made.succ.append((self.loop_stack[-1][0], NORMAL))
            return []
        if isinstance(s, ast.If):
            head = self.plain(s, tails, scopes=(s.test,))
            out = self.seq(s.body, [head])
            if s.orelse:
                out = out + self.seq(s.orelse, [head])
            else:
                out = out + [head]
            return out
        if isinstance(s, ast.While):
            return self._loop(s, tails, scopes=(s.test,),
                              infinite=isinstance(s.test, ast.Constant) and bool(s.test.value))
        if isinstance(s, (ast.For, ast.AsyncFor)):
            return self._loop(s, tails, scopes=(s.iter, s.target), infinite=False)
        if isinstance(s, (ast.With, ast.AsyncWith)):
            head = self.plain(s, tails, scopes=tuple(i.context_expr for i in s.items))
            return self.seq(s.body, [head])
        if isinstance(s, ast.Try):
            return self._try(s, tails)
        return [self.plain(s, tails)]

    def _loop(self, s, tails, scopes, infinite: bool) -> List[Node]:
        head = self.plain(s, tails, scopes=scopes)
        breaks: List[Node] = []
        self.loop_stack.append((head, breaks))
        body_tails = self.seq(s.body, [head])
        self.loop_stack.pop()
        self.join(body_tails, head)
        out = list(breaks)
        if not infinite:
            if s.orelse:
                out += self.seq(s.orelse, [head])
            else:
                out.append(head)
        return out

    def _try(self, s: ast.Try, tails) -> List[Node]:
        fin_enter = fin_exit = None
        flags = {"routed": False}
        if s.finalbody:
            # The suite is built once, in the *outer* context: its own
            # exceptions propagate past this try.
            fin_enter = self.marker("fin_enter", s)
            first_new = len(self.cfg.nodes)
            fin_tails = self.seq(s.finalbody, [fin_enter])
            fin_nodes = tuple(self.cfg.nodes[first_new:])
            fin_exit = self.marker("fin_exit", s)
            # First element is the matching fin_enter; the rest are the
            # suite's own nodes (the syntactic-kill scan needs both).
            fin_exit.fin_nodes = (fin_enter,) + fin_nodes
            self.join(fin_tails, fin_exit)
            # Re-raise continuation: an exception that entered the
            # suite keeps propagating after it.
            fin_exit.succ.append((self.exc_stack[-1], EXCEPT))
            self.fin_stack.append((fin_enter, flags))

        outer_exc = self.exc_stack[-1]
        after_body_exc = fin_enter if fin_enter is not None else outer_exc
        dispatch = None
        if s.handlers:
            dispatch = self.marker("dispatch", s)
            self.exc_stack.append(dispatch)
        else:
            self.exc_stack.append(after_body_exc)
        body_tails = self.seq(s.body, tails)
        self.exc_stack.pop()

        handler_tails: List[Node] = []
        if dispatch is not None:
            self.exc_stack.append(after_body_exc)
            for handler in s.handlers:
                head = self.node(handler, (handler.type,))
                dispatch.succ.append((head, NORMAL))
                handler_tails += self.seq(handler.body, [head])
            self.exc_stack.pop()
            # No handler matched: keep propagating.
            dispatch.succ.append((after_body_exc, EXCEPT))

        if s.orelse:
            self.exc_stack.append(after_body_exc)
            body_tails = self.seq(s.orelse, body_tails)
            self.exc_stack.pop()

        all_tails = body_tails + handler_tails
        if fin_enter is None:
            return all_tails
        self.fin_stack.pop()
        self.join(all_tails, fin_enter)
        if flags["routed"]:
            # A routed return continues past the suite: to the next
            # enclosing finally, or straight to the function exit.
            if self.fin_stack:
                outer_fin, outer_flags = self.fin_stack[-1]
                fin_exit.succ.append((outer_fin, NORMAL))
                outer_flags["routed"] = True
            else:
                fin_exit.succ.append((self.cfg.exit, NORMAL))
        return [fin_exit]

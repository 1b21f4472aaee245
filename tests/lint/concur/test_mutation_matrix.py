"""The historical-bug mutation matrix.

Each test reverts one shipped concurrency fix in-memory (an AST
transform of the real source, re-unparsed) and asserts the matching
rule re-triggers in the right file.  This is the acceptance gate for
the analyzer: a refactor that silently stops detecting one of these
four bugs fails here, not in production.

Unparsing drops comments, so the in-tree waivers vanish with the
mutation — the deliberately-held port findings resurface alongside the
injected bug.  The assertions therefore pin the *message shape*, not
just the rule id.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.lint.core import ModuleSource, Project, run_rules

SRC = Path(repro.__file__).resolve().parent

#: the modules the four historical fixes live in, plus their imports'
#: closure of concurrency-relevant neighbours — a subset for speed
SUBSET = [
    "bus/asb.py", "bus/arbiter.py", "bus/types.py",
    "cache/controller.py", "cache/line.py", "cache/array.py",
    "fabric/split.py", "fabric/directory.py",
    "core/wrapper.py", "core/snoop_logic.py",
    "sim/kernel.py", "sim/resources.py",
    "cpu/core.py",
]
CONCUR = ["resource-release", "hold-across-yield", "wait-cycle"]


@pytest.fixture(scope="module")
def base_sources():
    return {rel: (SRC / rel).read_text() for rel in SUBSET}


def project_with(sources):
    project = Project(root=SRC)
    for rel, text in sorted(sources.items()):
        project.modules.append(ModuleSource(rel, text))
    return project


def find_func(tree, name):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == name:
                return node
    raise AssertionError(f"no function {name!r}")


def mutated_project(base_sources, rel, transform):
    sources = dict(base_sources)
    tree = ast.parse(sources[rel])
    transform(tree)
    sources[rel] = ast.unparse(ast.fix_missing_locations(tree))
    return project_with(sources)


def matching(project, rule, path, fragment):
    return [
        f
        for f in run_rules(project, CONCUR)
        if f.rule == rule and f.path == path and fragment in f.message
    ]


def test_control_run_is_clean(base_sources):
    assert run_rules(project_with(base_sources), CONCUR) == []


def test_pr3_dropping_the_tenure_finally_leaks_the_bus(base_sources):
    # PR 3 fix: the ASB tenure releases the arbiter in a finally.
    def drop_tenure_finally(tree):
        func = find_func(tree, "transact")
        for i, stmt in enumerate(func.body):
            if isinstance(stmt, ast.Try) and stmt.finalbody:
                func.body[i:i + 1] = stmt.body
                return
        raise AssertionError("no try/finally in transact")

    project = mutated_project(base_sources, "bus/asb.py", drop_tenure_finally)
    hits = matching(project, "resource-release", "bus/asb.py", "bus-tenure")
    assert hits, "reverting the tenure finally must leak the bus grant"
    assert any("exception escapes" in f.message for f in hits)


def test_pr6_dropping_the_drain_bypass_closes_the_cycle(base_sources):
    # PR 6 fix: drain_line routes around the port when the policy says
    # the drain does not need it — the drain_needs_port bypass branch.
    def drop_drain_bypass(tree):
        func = find_func(tree, "drain_line")
        before = len(func.body)
        func.body = [
            stmt for stmt in func.body
            if not (isinstance(stmt, ast.If)
                    and isinstance(stmt.test, ast.UnaryOp)
                    and isinstance(stmt.test.operand, ast.Attribute)
                    and stmt.test.operand.attr == "drain_needs_port")
        ]
        assert len(func.body) < before, "bypass branch not found"

    project = mutated_project(
        base_sources, "cache/controller.py", drop_drain_bypass
    )
    hits = matching(
        project, "wait-cycle", "cache/controller.py", "waits-for cycle"
    )
    assert hits, "removing the bypass must re-create the port/drain cycle"
    assert any(
        "cache-port" in f.message and "drain-completion" in f.message
        for f in hits
    )


def test_pr8_live_snooper_walk_detected(base_sources):
    # PR 8 fix (window discipline): the snoop window iterates a
    # snapshot so fault teardown cannot detach a snooper mid-walk.
    def drop_window_snapshot(tree):
        func = find_func(tree, "_snoop_window")
        for node in ast.walk(func):
            if isinstance(node, ast.For) and isinstance(node.iter, ast.Call):
                node.iter = node.iter.args[0]
                return
        raise AssertionError("no snapshotted loop in _snoop_window")

    project = mutated_project(base_sources, "bus/asb.py", drop_window_snapshot)
    hits = matching(project, "hold-across-yield", "bus/asb.py", "snoop-window")
    assert hits, "un-snapshotting the window walk must be flagged"


def test_pr8_unguarded_drain_commit_detected(base_sources):
    # PR 8 fix (lost update): the drain push snapshots the line data
    # and the commit closure refuses a stale capture.
    def drop_drain_refusal(tree):
        func = find_func(tree, "_drain_push")
        before = len(func.body)
        func.body = [
            stmt for stmt in func.body
            if not (isinstance(stmt, ast.Assign) and any(
                isinstance(p, ast.Attribute) and p.attr == "data"
                for p in ast.walk(stmt.value)))
        ]
        assert len(func.body) < before, "data snapshot not found"
        commit = find_func(func, "commit")
        before = len(commit.body)
        commit.body = [
            stmt for stmt in commit.body
            if not (isinstance(stmt, ast.If)
                    and isinstance(stmt.test, ast.Compare))
        ]
        assert len(commit.body) < before, "stale-capture guard not found"

    project = mutated_project(
        base_sources, "cache/controller.py", drop_drain_refusal
    )
    hits = matching(
        project, "hold-across-yield", "cache/controller.py", "stale capture"
    )
    assert hits, "removing the stale-capture refusal must be flagged"

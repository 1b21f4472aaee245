"""The ``python -m repro lint`` subcommand.

Exit codes (stable, relied on by CI and shell pipelines):

====  ========================================================
0     clean — no error-severity findings (warnings may remain)
1     at least one error-severity finding survived suppressions
2     usage / configuration problem (unknown rule, missing or
      unreadable path, syntax error in a linted file)
====  ========================================================
"""

from __future__ import annotations

import sys
from typing import Optional, TextIO

from .core import RULES, Severity, load_project, run_rules
from .report import render_json, render_text

__all__ = ["run_lint", "add_lint_arguments"]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def add_lint_arguments(parser) -> None:
    """Attach the lint options to an ``argparse`` (sub)parser."""
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--rules",
        nargs="+",
        metavar="RULE",
        help="run only these rules (default: all registered rules)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )


def run_lint(args, stdout: Optional[TextIO] = None, stderr: Optional[TextIO] = None) -> int:
    """Execute one lint run from parsed ``args``; returns the exit code."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr

    # Rule registration happens inside run_rules; force it early so
    # --list-rules and rule validation see the full registry.
    from . import rules as _rules  # noqa: F401

    if args.list_rules:
        width = max(len(rule_id) for rule_id in RULES)
        for rule_id, rule in RULES.items():
            out.write(f"{rule_id:<{width}}  {rule.description}\n")
        return EXIT_CLEAN

    try:
        project = load_project(args.paths or None)
    except (OSError, SyntaxError) as exc:
        err.write(f"repro lint: cannot load sources: {exc}\n")
        return EXIT_USAGE

    try:
        findings = run_rules(project, args.rules)
    except KeyError as exc:
        err.write(f"repro lint: {exc.args[0]}\n")
        return EXIT_USAGE

    if args.format == "json":
        render_json(findings, out)
    else:
        render_text(findings, out)

    errors = sum(1 for f in findings if f.severity is Severity.ERROR)
    return EXIT_FINDINGS if errors else EXIT_CLEAN

"""Reporters for ``repro lint``.

Two output formats:

* **text** — one ``path:line: [severity] rule: message`` per finding,
  grouped by file, plus a summary line.  This is the human format.
* **json** — a stable machine-readable document that CI uploads as an
  artifact; its ``schema`` field is bumped on incompatible changes.
"""

from __future__ import annotations

import json
from typing import Sequence, TextIO

from .core import Finding, Severity

__all__ = ["render_text", "render_json", "JSON_SCHEMA_VERSION"]

#: bumped whenever the JSON document shape changes incompatibly
JSON_SCHEMA_VERSION = 1


def render_text(findings: Sequence[Finding], stream: TextIO) -> None:
    """Write the human-readable report: findings grouped by file."""
    if not findings:
        stream.write("repro lint: clean\n")
        return
    last_path = None
    for finding in findings:
        if finding.path != last_path:
            if last_path is not None:
                stream.write("\n")
            last_path = finding.path
        stream.write(finding.render() + "\n")
    errors = sum(1 for f in findings if f.severity is Severity.ERROR)
    warnings = len(findings) - errors
    stream.write(
        f"\nrepro lint: {errors} error(s), {warnings} warning(s) "
        f"in {len({f.path for f in findings})} file(s)\n"
    )


def render_json(findings: Sequence[Finding], stream: TextIO) -> None:
    """Write the machine-readable report."""
    document = {
        "schema": JSON_SCHEMA_VERSION,
        "tool": "repro-lint",
        "errors": sum(1 for f in findings if f.severity is Severity.ERROR),
        "warnings": sum(1 for f in findings if f.severity is Severity.WARNING),
        "findings": [
            {
                "rule": f.rule,
                "path": f.path,
                "line": f.line,
                "severity": f.severity.value,
                "message": f.message,
            }
            for f in findings
        ],
    }
    json.dump(document, stream, indent=2, sort_keys=True)
    stream.write("\n")

"""Static analysis for the simulator (``python -m repro lint``).

See :mod:`repro.lint.core` for the framework, the ``repro.lint.*`` rule
modules for the individual checks, and ``docs/static-analysis.md`` for
the rule catalog and suppression syntax.
"""

from .core import (
    RULES,
    Finding,
    ModuleSource,
    Project,
    Rule,
    Severity,
    load_project,
    register,
    run_rules,
)

__all__ = [
    "RULES",
    "Finding",
    "ModuleSource",
    "Project",
    "Rule",
    "Severity",
    "load_project",
    "register",
    "run_rules",
]

"""The static-analysis framework: rules, findings, suppressions.

``repro lint`` complements the *dynamic* verification layers (the
runtime coherence checker, the exhaustive model checker, the fault
matrix) with checks that need no simulation at all: AST passes over the
package source catch simulator hazards (nondeterministic iteration,
unguarded trace emits, bad process yields and import-direction
contracts).

The pieces:

* :class:`Finding` — one diagnostic, anchored to a file and line.
* :class:`Rule` — a registered check that inspects one parsed module at
  a time.
* :class:`Project` / :class:`ModuleSource` — the parsed source tree,
  with per-module suppression tables and lazily built AST parent links.
* ``# repro: lint-ok[rule-id]`` — the inline suppression syntax.  A
  suppression names the rule(s) it silences and applies to its own line
  (or, on a comment-only line, to the next line).  Blanket or malformed
  suppressions are themselves findings, as are suppressions that no
  longer silence anything — the repo can never accumulate dead waivers.

Running everything::

    from repro.lint import run_rules, load_project
    findings = run_rules(load_project())
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Severity",
    "Finding",
    "ModuleSource",
    "Project",
    "Rule",
    "RULES",
    "register",
    "load_project",
    "run_rules",
    "SUPPRESSION_RULE_ID",
]

#: findings about the suppression comments themselves use this rule id
SUPPRESSION_RULE_ID = "suppression"

_SUPPRESS_RE = re.compile(r"#\s*repro:\s*lint-ok(?:\[([^\]]*)\])?")


class Severity(Enum):
    """How a finding affects the exit code (errors fail the run)."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True, slots=True)
class Finding:
    """One diagnostic produced by a rule."""

    rule: str
    path: str
    line: int
    message: str
    severity: Severity = Severity.ERROR

    def render(self) -> str:
        """``path:line: [severity] rule: message`` — one line per finding."""
        return (
            f"{self.path}:{self.line}: [{self.severity.value}] "
            f"{self.rule}: {self.message}"
        )


class ModuleSource:
    """One parsed source file plus its suppression table."""

    def __init__(self, path: str, text: str):
        #: path relative to the project root, POSIX-style (stable in reports)
        self.path = path
        self.text = text
        self.tree = ast.parse(text, filename=path)
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None
        #: line -> rule ids suppressed on that line ("*" never appears:
        #: blanket suppressions are rejected at parse time)
        self.suppressions: Dict[int, Set[str]] = {}
        #: (line, rule) pairs that actually silenced a finding
        self.used_suppressions: Set[Tuple[int, str]] = set()
        #: findings about malformed suppression comments
        self.suppression_findings: List[Finding] = []
        self._parse_suppressions()

    # -- suppressions ------------------------------------------------------
    def _parse_suppressions(self) -> None:
        # Tokenize so only genuine comments count — a docstring that
        # *documents* the lint-ok syntax must not create a waiver.
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(self.text).readline))
        except tokenize.TokenError:  # pragma: no cover - ast.parse caught it
            return
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if match is None:
                continue
            lineno = token.start[0]
            ids = match.group(1)
            rules = [r.strip() for r in (ids or "").split(",") if r.strip()]
            if not rules:
                self.suppression_findings.append(
                    Finding(
                        rule=SUPPRESSION_RULE_ID,
                        path=self.path,
                        line=lineno,
                        message=(
                            "blanket suppression: lint-ok must name the "
                            "rule(s) it silences, e.g. lint-ok[determinism]"
                        ),
                    )
                )
                continue
            # A comment-only line suppresses the next line; a trailing
            # comment suppresses its own line.
            line_text = self.text.splitlines()[lineno - 1]
            own_line = line_text.lstrip().startswith("#")
            target = lineno + 1 if own_line else lineno
            self.suppressions.setdefault(target, set()).update(rules)

    def is_suppressed(self, finding: Finding) -> bool:
        """True (and mark used) when an inline waiver covers ``finding``."""
        rules = self.suppressions.get(finding.line)
        if rules and finding.rule in rules:
            self.used_suppressions.add((finding.line, finding.rule))
            return True
        return False

    def unused_suppression_findings(self, known_rules: Set[str]) -> List[Finding]:
        """A warning per waiver that silenced nothing this run.

        Waivers naming a rule outside ``known_rules`` are excluded —
        they are reported separately (as errors, not unused warnings).
        """
        findings = []
        for line, rules in sorted(self.suppressions.items()):
            for rule in sorted(rules):
                if rule not in known_rules:
                    continue
                if (line, rule) not in self.used_suppressions:
                    findings.append(
                        Finding(
                            rule=SUPPRESSION_RULE_ID,
                            path=self.path,
                            line=line,
                            message=f"unused suppression for rule {rule!r}",
                            severity=Severity.WARNING,
                        )
                    )
        return findings

    def unknown_suppression_findings(self, known_rules: Set[str]) -> List[Finding]:
        """An error per waiver naming a rule that does not exist.

        A typo'd waiver (``lint-ok[determinsm]``) would
        otherwise sit dead forever while the finding it meant to
        silence fails the run — or worse, silently stop waiving after
        a rule rename.
        """
        findings = []
        for line, rules in sorted(self.suppressions.items()):
            for rule in sorted(rules):
                if rule not in known_rules:
                    findings.append(
                        Finding(
                            rule=SUPPRESSION_RULE_ID,
                            path=self.path,
                            line=line,
                            message=(
                                f"suppression names unknown rule {rule!r} "
                                f"(no such rule is registered)"
                            ),
                        )
                    )
        return findings

    # -- AST helpers -------------------------------------------------------
    @property
    def parents(self) -> Dict[ast.AST, ast.AST]:
        """Child -> parent links for the whole tree (built once)."""
        if self._parents is None:
            parents: Dict[ast.AST, ast.AST] = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    parents[child] = node
            self._parents = parents
        return self._parents

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk from ``node``'s parent up to the module root."""
        parents = self.parents
        current = parents.get(node)
        while current is not None:
            yield current
            current = parents.get(current)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ModuleSource {self.path}>"


@dataclass
class Project:
    """The file set one lint run inspects."""

    modules: List[ModuleSource] = field(default_factory=list)


def load_project(paths: Optional[Sequence[str]] = None) -> Project:
    """Parse the package source into a :class:`Project`.

    With no ``paths`` the package's own source tree (``src/repro``) is
    used, located relative to this file so the lint run works from any
    working directory.  Files under the package root always get the
    same package-relative label regardless of how they were named on
    the command line, so reports read the same for ``repro lint`` and
    ``repro lint src/repro/bus``.  A missing or unreadable path raises
    ``OSError``.
    """
    package_root = Path(__file__).resolve().parents[1]  # .../src/repro
    if paths:
        files: List[Path] = []
        for raw in paths:
            p = Path(raw)
            if p.is_dir():
                files.extend(sorted(p.rglob("*.py")))
            else:
                files.append(p)
        root = Path(paths[0])
        root = root if root.is_dir() else root.parent
    else:
        root = package_root
        files = sorted(root.rglob("*.py"))
    project = Project()
    seen: Set[str] = set()
    for file in files:
        resolved = file.resolve()
        try:
            label = resolved.relative_to(package_root).as_posix()
        except ValueError:
            try:
                label = resolved.relative_to(root.resolve()).as_posix()
            except ValueError:
                label = file.as_posix()
        if label in seen:  # a file named twice on the command line
            continue
        seen.add(label)
        project.modules.append(ModuleSource(label, file.read_text()))
    return project


class Rule:
    """Base class: one registered check over one parsed module at a time.

    Subclasses set ``id`` and ``description`` and override
    :meth:`visit_module`.  Path anchoring is the rule's job; the
    framework applies suppressions afterwards.
    """

    id: str = "?"
    description: str = ""
    #: path fragments (POSIX) this rule never applies to
    exempt_paths: Tuple[str, ...] = ()

    def visit_module(self, module: ModuleSource) -> Iterable[Finding]:
        """Yield findings for one module."""
        raise NotImplementedError

    def finding(self, path: str, line: int, message: str) -> Finding:
        """A finding attributed to this rule."""
        return Finding(rule=self.id, path=path, line=line, message=message)


#: the rule registry, id -> instance, in registration order
RULES: Dict[str, Rule] = {}


def register(rule):
    """Add a rule to :data:`RULES`.

    Used as a class decorator (the class is instantiated here) or
    called with an instance, for one rule class configured per use.
    """
    instance = rule() if isinstance(rule, type) else rule
    if instance.id in RULES:
        raise ValueError(f"duplicate lint rule id {instance.id!r}")
    RULES[instance.id] = instance
    return rule


def run_rules(
    project: Project,
    rule_ids: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Run (a subset of) the registered rules and apply suppressions.

    Returns the surviving findings sorted by (path, line, rule);
    includes the suppression hygiene findings (malformed waivers always,
    unused waivers only when every rule ran — a partial run cannot tell
    a dead waiver from one whose rule was skipped).
    """
    # Import for registration side effects; deferred to avoid a cycle at
    # package import time (rule modules import this one).
    from . import rules as _rules  # noqa: F401  (registration import)

    if rule_ids is None:
        selected = list(RULES.values())
    else:
        unknown = [r for r in rule_ids if r not in RULES]
        if unknown:
            raise KeyError(
                f"unknown lint rule(s): {', '.join(sorted(unknown))}; "
                f"registered: {', '.join(RULES)}"
            )
        selected = [RULES[r] for r in rule_ids]
    findings: List[Finding] = []
    for rule in selected:
        for module in project.modules:
            if any(fragment in module.path for fragment in rule.exempt_paths):
                continue
            for finding in rule.visit_module(module):
                if not module.is_suppressed(finding):
                    findings.append(finding)
    known_rules = set(RULES) | {SUPPRESSION_RULE_ID}
    for module in project.modules:
        findings.extend(module.suppression_findings)
        findings.extend(module.unknown_suppression_findings(known_rules))
        if rule_ids is None:
            findings.extend(module.unused_suppression_findings(known_rules))
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return findings

"""``engine-contract`` and ``fabric-contract`` — the model's two
execution/interconnect splits, statically enforced by one rule.

The engine split (:mod:`repro.engines`, ``docs/engines.md``) and the
fabric split (:mod:`repro.fabric`, ``docs/fabrics.md``) carry the same
obligations, so each is a :class:`Contract` of data checked by one
:class:`ContractRule`:

* **import direction** — model code never imports the package.  The
  dependency is strictly one-way: a model module reaching into
  ``repro.engines`` would make the "exact engine reproduces the kernel
  byte-for-byte" claim circular, and a snooper or controller reaching
  into ``repro.fabric`` would tie the reference semantics to one
  interconnect organisation.  Each contract names its sanctioned
  consumers.
* **no back-imports** — the package never imports the model modules
  its contract names: the platform imports the fabric names
  (``FABRICS``), so a fabric importing the platform back would be a
  cycle.

Which engines and fabrics exist is no lint concern: each package's
dict (``ENGINES``, ``FABRICS``) is the whole vocabulary.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Iterator, Tuple

from .core import Finding, ModuleSource, Rule, register

__all__ = ["Contract", "ContractRule", "ENGINES", "FABRICS"]


@dataclass(frozen=True)
class Contract:
    """One package's import obligations, as data."""

    rule_id: str
    description: str
    #: the package, relative to ``repro``
    package: str
    #: what an entry is called in findings
    noun: str
    #: path fragments (POSIX, relative to src/repro) allowed to import
    #: the package; everything else is model code
    consumers: Tuple[str, ...]
    #: how the one-way dependency runs, quoted in import findings
    direction: str
    #: modules (relative to ``repro``) the package may never import
    back_imports: Tuple[str, ...] = ()
    #: the back-import finding, formatted with the offending ``target``
    back_import_message: str = ""


ENGINES = Contract(
    rule_id="engine-contract",
    description="model code never imports repro.engines",
    package="engines",
    noun="engine",
    consumers=("engines/", "exp/", "lint/", "__main__"),
    direction="engines import the model, never the reverse",
)

FABRICS = Contract(
    rule_id="fabric-contract",
    description=(
        "model code never imports repro.fabric, and the fabric package "
        "never imports the platform back"
    ),
    package="fabric",
    noun="fabric",
    consumers=("fabric/", "core/platform", "exp/", "lint/", "__main__"),
    direction="fabrics wrap the bus model, never the reverse",
    back_imports=("core.platform",),
    back_import_message=(
        "fabric package imports the platform ({target}); the platform "
        "imports the fabric vocabulary, never the reverse"
    ),
)


def _imports(module: ModuleSource) -> Iterator[Tuple[ast.AST, str]]:
    """Every import target, relative ones with their leading dots."""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.name
        elif isinstance(node, ast.ImportFrom):
            yield node, "." * node.level + (node.module or "")


def _names(target: str, module: str) -> bool:
    """Does import ``target`` name ``repro.<module>`` or a submodule?"""
    if not target.startswith("."):
        module = f"repro.{module}"
    bare = target.lstrip(".")
    return bare == module or bare.startswith(module + ".")


class ContractRule(Rule):
    """Imports between the model and one package run one way."""

    def __init__(self, contract: Contract):
        self.contract = contract
        self.id = contract.rule_id
        self.description = contract.description

    def visit_module(self, module: ModuleSource) -> Iterable[Finding]:
        contract = self.contract
        if f"{contract.package}/" in module.path:
            for node, target in _imports(module):
                if any(_names(target, back) for back in contract.back_imports):
                    yield self.finding(
                        module.path, node.lineno,
                        contract.back_import_message.format(target=target),
                    )
            return
        if any(fragment in module.path for fragment in contract.consumers):
            return
        for node, target in _imports(module):
            if _names(target, contract.package):
                yield self.finding(
                    module.path, node.lineno,
                    f"model code imports {contract.noun} internals "
                    f"({target}); the dependency is one-way — "
                    f"{contract.direction}",
                )


register(ContractRule(ENGINES))
register(ContractRule(FABRICS))

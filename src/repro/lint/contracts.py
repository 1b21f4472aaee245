"""``engine-contract`` and ``fabric-contract`` — the model's two
swappable-implementation splits, statically enforced by one rule.

The engine split (:mod:`repro.engines`, ``docs/engines.md``) and the
fabric split (:mod:`repro.fabric`, ``docs/fabrics.md``) carry the same
obligations, so each is a :class:`Contract` of data checked by one
:class:`ContractRule`:

* **surface completeness** — every registered entry provides the full
  required surface, reports the name it is registered under, carries a
  positive int version and a fingerprint with name and version; where
  the model owns a name vocabulary (``platform.FABRIC_NAMES``) the
  registry covers it exactly.  Checked against the live registry, so a
  stub that merely parses cannot pass, with each finding anchored to
  the offending class definition.
* **import direction** — model code never imports the package.  The
  dependency is strictly one-way: a model module reaching into
  ``repro.engines`` would make the "exact engine reproduces the kernel
  byte-for-byte" claim circular, and a snooper or controller reaching
  into ``repro.fabric`` would tie the reference semantics to one
  interconnect organisation.  Each contract names its sanctioned
  consumers.
* **no back-imports** — the package never imports the model modules
  its contract names: the fabric vocabulary flows model -> fabric
  only, so configurations validate without loading any fabric code.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from .core import AstRule, Finding, ModuleSource, Project, register

__all__ = ["Contract", "ContractRule", "ENGINES", "FABRICS", "validate_surface"]


@dataclass(frozen=True)
class Contract:
    """One registry's obligations, as data."""

    rule_id: str
    description: str
    #: the package, relative to ``repro`` (holds ``registry.py`` with a
    #: ``_REGISTRY`` dict and ``interfaces.py`` with the interface)
    package: str
    #: what an entry is called in findings
    noun: str
    #: the interface class every entry derives from, in ``interfaces.py``
    interface: str
    #: members every registered entry must provide
    surface: Tuple[str, ...]
    #: path fragments (POSIX, relative to src/repro) allowed to import
    #: the package; everything else is model code
    consumers: Tuple[str, ...]
    #: why the fingerprint must carry name and version
    fingerprint_use: str
    #: how the one-way dependency runs, quoted in import findings
    direction: str
    #: the ``core.platform`` tuple the registry must match exactly
    vocabulary: Optional[str] = None
    #: modules (relative to ``repro``) the package may never import
    back_imports: Tuple[str, ...] = ()
    #: the back-import finding, formatted with the offending ``target``
    back_import_message: str = ""


ENGINES = Contract(
    rule_id="engine-contract",
    description=(
        "every registered engine implements the full ISimEngine surface "
        "and model code never imports repro.engines"
    ),
    package="engines",
    noun="engine",
    interface="ISimEngine",
    surface=("name", "version", "run", "fingerprint"),
    consumers=("engines/", "exp/", "lint/", "__main__"),
    fingerprint_use="cache keys",
    direction="engines import the model, never the reverse",
)

FABRICS = Contract(
    rule_id="fabric-contract",
    description=(
        "every registered fabric implements the full IFabric surface, "
        "model code never imports repro.fabric, and the fabric package "
        "never imports the platform vocabulary back"
    ),
    package="fabric",
    noun="fabric",
    interface="IFabric",
    # the IFabric surface plus the bus surface the model already speaks
    # (provided by deriving from AsbBus)
    surface=("name", "version", "build", "transact", "fingerprint",
             "attach_snooper", "detach_snooper", "register_master",
             "inflight_tenures"),
    consumers=("fabric/", "core/platform", "exp/", "lint/", "__main__"),
    fingerprint_use="bench baselines",
    direction="fabrics wrap the bus model, never the reverse",
    vocabulary="FABRIC_NAMES",
    back_imports=("core.platform",),
    back_import_message=(
        "fabric package imports the platform ({target}); "
        "the name vocabulary flows model -> fabric only"
    ),
)


def _anchor(cls, fallback: str) -> Tuple[str, int]:
    try:
        path = inspect.getsourcefile(cls) or fallback
        line = inspect.getsourcelines(cls)[1]
    except (OSError, TypeError):  # pragma: no cover - C extension
        return fallback, 1
    marker = "repro/"
    cut = path.rfind(marker)
    return (path[cut + len(marker):] if cut >= 0 else path), line


def validate_surface(contract: Contract) -> List[Tuple[str, int, str]]:
    """Problems with ``contract``'s live registry ([] = sound).

    Returns ``(path, line, message)`` tuples.  Registries hold engine
    singletons or fabric classes; either way the entry's class is what
    gets anchored and checked.
    """
    def load(module: str):
        return importlib.import_module(f"..{module}", __package__)

    registry = load(f"{contract.package}.registry")._REGISTRY
    interface = getattr(load(f"{contract.package}.interfaces"),
                        contract.interface)
    noun = contract.noun
    registry_path = f"{contract.package}/registry.py"
    problems: List[Tuple[str, int, str]] = []

    if contract.vocabulary is not None:
        expected = tuple(getattr(load("core.platform"), contract.vocabulary))
        registered = tuple(registry)
        if registered != expected:
            problems.append((
                registry_path, 1,
                f"{noun} registry {registered} does not match "
                f"platform.{contract.vocabulary} {expected}",
            ))
    for name, entry in registry.items():
        cls = entry if isinstance(entry, type) else type(entry)
        path, line = _anchor(cls, registry_path)
        if not issubclass(cls, interface):
            problems.append((path, line,
                             f"{noun} {name!r} is not an {contract.interface}"))
            continue
        for attr in contract.surface:
            member = getattr(entry, attr, None)
            if member is None:
                problems.append((
                    path, line,
                    f"{noun} {name!r} lacks required member {attr!r}",
                ))
            elif attr not in ("name", "version") and not callable(member):
                problems.append((
                    path, line,
                    f"{noun} {name!r}: {attr!r} must be callable",
                ))
        if getattr(entry, "name", None) != name:
            problems.append((
                path, line,
                f"{noun} registered as {name!r} reports name "
                f"{getattr(entry, 'name', None)!r}",
            ))
        version = getattr(entry, "version", None)
        if not isinstance(version, int) or version < 1:
            problems.append((
                path, line,
                f"{noun} {name!r}: version must be a positive int, "
                f"got {version!r}",
            ))
        fp = entry.fingerprint()
        if not {"name", "version"} <= set(fp):
            problems.append((
                path, line,
                f"{noun} {name!r}: fingerprint() must carry name and "
                f"version ({contract.fingerprint_use} depend on them), "
                f"got {sorted(fp)}",
            ))
    return problems


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


class ContractRule(AstRule):
    """One registry implements its full surface; imports run one way."""

    def __init__(self, contract: Contract):
        self.contract = contract
        self.id = contract.rule_id
        self.description = contract.description

    def check(self, project: Project) -> Iterable[Finding]:
        # Surface completeness: only meaningful when linting the real
        # package (a partial path selection may not include it).
        if project.module(f"{self.contract.package}/registry.py") is not None:
            for path, line, message in validate_surface(self.contract):
                yield self.finding(path, line, message)
        yield from super().check(project)

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

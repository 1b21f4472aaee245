"""The static concurrency analyzer behind three ``repro lint`` rules.

``resource-release``, ``hold-across-yield`` and ``wait-cycle`` share
one whole-program model (:mod:`.model`): yield-point CFGs with
exception edges (:mod:`.cfg`) over every simulation-process generator,
classified against a declarative resource registry (:mod:`.resources`).
Each rule module registers itself on import; ``repro/lint/rules.py``
imports them.
"""

from .resources import ResourceSpec  # noqa: F401
from .model import ConcurAnalysis  # noqa: F401

__all__ = ["ResourceSpec", "ConcurAnalysis"]

"""Rule registration: importing this module populates the registry.

Each rule lives in its own module; importing it runs the ``@register``
decorator.  :func:`repro.lint.core.run_rules` imports this module before
selecting rules, so callers never need to know the individual modules.
"""

from . import determinism  # noqa: F401
from . import contracts  # noqa: F401
from . import process_yield  # noqa: F401
from . import trace_guard  # noqa: F401

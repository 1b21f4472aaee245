"""Hot-path classes carry no per-instance ``__dict__``.

The per-event and per-transaction objects (events, trace records, bus
vocabulary, cache lines and arrays, tenure state, the coherence step)
are slotted: slotting them recovered double-digit percentages of
simulator throughput.  ``cls.__dictoffset__`` is Python's own answer to
"do instances get a ``__dict__``", so a class that declares
``__slots__`` but inherits from an unslotted base, in this module or
any other, fails here too.  Enum and exception families are exempt
(framework-managed, never per-event), and so are the one-per-platform
singletons below.
"""

import importlib
from enum import Enum

import pytest

#: the modules on the per-access critical path
HOT_MODULES = (
    "repro.sim.kernel",
    "repro.sim.tracing",
    "repro.cache.line",
    "repro.cache.array",
    "repro.bus.types",
    "repro.bus.asb",
    "repro.core.coherence",
)

#: the hot-module classes that keep a ``__dict__``, each with its reason
SINGLETONS = {
    "repro.sim.kernel.Simulator": "one scheduler per platform",
    "repro.sim.tracing.Tracer": "one per platform; hot code reads slotted TraceChannel guards",
    "repro.sim.tracing.NullTracer": "a Tracer that stores nothing, one per run",
    "repro.bus.asb.AsbBus": "one bus per platform",
}


def classes_with_dict(module):
    """Dotted names of the classes defined in ``module`` whose instances
    get a ``__dict__``, nested classes included, Enum and exception
    families left out."""
    found, pending = [], [vars(module)]
    while pending:
        for obj in pending.pop().values():
            if isinstance(obj, type) and obj.__module__ == module.__name__ and obj not in found:
                found.append(obj)
                pending.append(vars(obj))
    return {
        f"{module.__name__}.{cls.__qualname__}"
        for cls in found
        if cls.__dictoffset__ and not issubclass(cls, (Enum, BaseException))
    }


@pytest.mark.parametrize("name", HOT_MODULES)
def test_hot_classes_have_no_dict(name):
    with_dict = classes_with_dict(importlib.import_module(name))
    assert with_dict == {path for path in SINGLETONS if path.rpartition(".")[0] == name}

"""Native builds of the exact engine's hot modules.

``tools/build_native.py`` compiles :data:`HOT_MODULES` when mypyc or
Cython is installed; the exact engine then runs on the compiled
modules and its fingerprint says so.  Without a native build (the
default) the fingerprint reports ``native: False``.  Either way the
golden-trace test proves the kernel byte-identical.
"""

from repro.engines import get_engine, kernel_is_native, native_modules
from repro.engines.exact import HOT_MODULES


def test_native_detection_shape():
    modules = native_modules()
    assert set(modules) == set(HOT_MODULES)
    assert all(isinstance(v, bool) for v in modules.values())
    assert kernel_is_native() == modules["repro.sim.kernel"]


def test_capabilities_reflect_the_build():
    fp = get_engine("exact").fingerprint()
    assert fp == {"name": "exact", "version": 1, "native": kernel_is_native()}

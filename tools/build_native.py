#!/usr/bin/env python
"""Build native extensions for the exact engine's hot modules.

Compiles the modules named by :data:`repro.engines.exact.HOT_MODULES`
(the event kernel and the cache tag array) in place, preferring mypyc
and falling back to Cython.  A successful build drops a ``.so``/``.pyd``
next to each source file; the import system then prefers it, and the
exact engine's fingerprint reports ``native: true``.  Nothing else
changes — the compiled kernel is behaviourally identical to the
pure-Python one (the golden-trace test proves it).

With neither toolchain installed this script prints what to install
and exits 0: a native build is an *optional* accelerator, and every
consumer (CI's native leg, the bench suite) must degrade gracefully to
pure Python.  Pass ``--require`` to exit 1 instead when
no native build was produced, and ``--clean`` to remove build
artefacts.
"""

from __future__ import annotations

import argparse
import glob
import os
import subprocess
import sys

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
SRC = os.path.join(REPO_ROOT, "src")
sys.path.insert(0, SRC)

from repro.engines.exact import HOT_MODULES  # noqa: E402


def _sources() -> list:
    return [
        os.path.join(SRC, *name.split(".")) + ".py" for name in HOT_MODULES
    ]


def _artifacts() -> list:
    found = []
    for source in _sources():
        stem = source[: -len(".py")]
        for pattern in (f"{stem}.*.so", f"{stem}.so", f"{stem}.*.pyd",
                        f"{stem}.pyd", f"{stem}.c"):
            found.extend(glob.glob(pattern))
    return found


def clean() -> None:
    for path in _artifacts():
        print(f"removing {os.path.relpath(path, REPO_ROOT)}")
        os.unlink(path)


def _try(label: str, command: list) -> bool:
    print(f"trying {label}: {' '.join(command)}")
    try:
        completed = subprocess.run(command, cwd=SRC)
    except OSError as error:
        print(f"  {label} failed to launch: {error}")
        return False
    if completed.returncode != 0:
        print(f"  {label} exited with {completed.returncode}")
        return False
    return True


def _verify() -> bool:
    """Check the build took effect in a *fresh* interpreter.

    This process may already hold the pure-Python modules in
    ``sys.modules``; a subprocess sees what the next user will see.
    """
    probe = (
        "from repro.engines.exact import native_modules\n"
        "import json; print(json.dumps(native_modules()))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
    )
    print(completed.stdout.strip())
    return completed.returncode == 0 and '"repro.sim.kernel": true' in (
        completed.stdout
    )


def build() -> bool:
    relative = [os.path.relpath(s, SRC) for s in _sources()]
    try:
        import mypyc  # noqa: F401
    except ImportError:
        print("mypyc not installed")
    else:
        if _try("mypyc", [sys.executable, "-m", "mypyc", *relative]):
            return _verify()
    try:
        import Cython  # noqa: F401
    except ImportError:
        print("Cython not installed")
    else:
        if _try(
            "cythonize",
            [sys.executable, "-m", "Cython.Build.Cythonize",
             "-i", "-3", *relative],
        ):
            return _verify()
    return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clean", action="store_true",
                        help="remove native build artefacts and exit")
    parser.add_argument("--require", action="store_true",
                        help="exit 1 when no native build was produced")
    args = parser.parse_args(argv)
    if args.clean:
        clean()
        return 0
    if build():
        print("native build OK: the exact engine now reports native=True")
        return 0
    print(
        "no native build produced -- the exact engine will run the\n"
        "pure-Python modules (identical behaviour, no speedup).\n"
        "To enable: pip install mypy  (for mypyc)  or  pip install cython"
    )
    return 1 if args.require else 0


if __name__ == "__main__":
    sys.exit(main())

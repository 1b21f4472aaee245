"""Golden oracle for the exhaustive model checker.

Pins the full ``python -m repro verify`` report and, for every checked
configuration, the ``render()`` summary plus every witness path.  Any
change to the transition semantics the checker executes shows up as a
byte difference here, not just as a shifted state-count bound.

Regenerate (only for an *intentional* semantic change)::

    PYTHONPATH=src python tests/verify/test_golden.py --regen
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from itertools import product

from repro.__main__ import main
from repro.verify.model_check import check_pair, check_system

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
VERIFY_FILE = os.path.join(GOLDEN_DIR, "verify_cli.txt")
RENDER_FILE = os.path.join(GOLDEN_DIR, "model_check_render.txt")

PROTOCOLS = ("MEI", "MSI", "MESI", "MOESI")
SYSTEMS = (
    ("MESI", "MEI", "MOESI"),
    ("MSI", "MESI", "MOESI"),
    ("MOESI", "MOESI", "MOESI"),
    ("MEI", "MSI", "MESI", "MOESI"),
)


def verify_cli_output() -> str:
    """Stdout of ``python -m repro verify``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["verify"])
    return out.getvalue()


def _describe(result) -> str:
    lines = [result.render()]
    lines += [f"    witness: {v.describe()}" for v in result.violations]
    return "\n".join(lines)


def render_report() -> str:
    """render() and every witness for all 16 pairs and the 4 systems."""
    blocks = []
    for wrapped in (True, False):
        for p0, p1 in product(PROTOCOLS, repeat=2):
            blocks.append(_describe(check_pair(p0, p1, wrapped=wrapped)))
    for system, wrapped, directory in product(
        SYSTEMS, (True, False), (False, True)
    ):
        blocks.append(
            _describe(check_system(system, wrapped=wrapped, directory=directory))
        )
    return "\n".join(blocks) + "\n"


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def test_verify_cli_matches_golden():
    assert verify_cli_output() == _read(VERIFY_FILE)


def test_model_check_renders_match_golden():
    assert render_report() == _read(RENDER_FILE)


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    if "--regen" not in sys.argv:
        sys.exit("usage: test_golden.py --regen")
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for path, text in ((VERIFY_FILE, verify_cli_output()), (RENDER_FILE, render_report())):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        print("wrote", path)

"""Every example script must run to completion (regression smoke tests).

Examples are executed in-process via runpy so their asserts fire here.
"""

import os
import runpy
import sys

import pytest

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


def run_example(name, argv=()):
    path = os.path.abspath(os.path.join(EXAMPLES, name))
    old_argv = sys.argv
    sys.argv = [path, *argv]
    try:
        runpy.run_path(path, run_name="__main__")
    finally:
        sys.argv = old_argv


@pytest.mark.parametrize(
    "script",
    [
        "quickstart.py",
        "deadlock_demo.py",
        "custom_platform.py",
        "parallel_kernels.py",
        "media_pipeline.py",
        "network_rx.py",
        "protocol_reduction.py",
    ],
)
def test_example_runs(script, capsys):
    run_example(script)
    out = capsys.readouterr().out
    assert out.strip()  # every example narrates its result

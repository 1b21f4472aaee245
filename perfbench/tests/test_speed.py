"""Tests for the benchmark's host-speed sampler.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
import signal
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import speed  # noqa: E402
from speed import NOMINAL_S, SpeedSampler  # noqa: E402


def sampler_with(samples):
    s = SpeedSampler()
    s.samples = list(samples)
    return s


class TestSlowness:
    def test_mean_inside_the_interval(self):
        s = sampler_with([(1.0, NOMINAL_S), (2.0, 3 * NOMINAL_S), (5.0, 9 * NOMINAL_S)])
        assert s.slowness(0.5, 2.5) == pytest.approx(2.0)
        assert s.slowness() == pytest.approx(13 / 3)

    def test_empty_interval_uses_the_next_sample(self):
        s = sampler_with([(1.0, NOMINAL_S), (2.0, 4 * NOMINAL_S), (3.0, 8 * NOMINAL_S)])
        assert s.slowness(1.2, 1.8) == pytest.approx(4.0)
        assert s.slowness(3.5, 4.0) == pytest.approx(8.0)

    def test_no_samples_is_an_error(self):
        with pytest.raises(RuntimeError):
            SpeedSampler().slowness()

    def test_corrected_divides_each_operation_by_its_own_slowness(self):
        s = sampler_with([(1.0, 2 * NOMINAL_S), (3.0, 4 * NOMINAL_S)])
        assert s.corrected([(0.5, 1.5, 1.0), (2.5, 3.5, 2.0)]) == pytest.approx([0.5, 0.5])


class TestTimer:
    def test_samples_and_restores_the_handler(self):
        before = signal.getsignal(signal.SIGPROF)
        s = SpeedSampler()
        s.start()
        deadline = time.monotonic() + 0.2
        while time.monotonic() < deadline:
            speed.reference_loop(50)
        s.stop()
        assert len(s.samples) >= 5
        assert s.spent_s > 0
        assert signal.getsignal(signal.SIGPROF) is before
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)

    def test_thread_samples_until_stopped(self):
        s = SpeedSampler()
        s.start_thread()
        time.sleep(0.2)
        s.stop()
        n = len(s.samples)
        assert n >= 5
        time.sleep(0.05)
        assert len(s.samples) == n

"""Tests for the seeded FIQ response jitter."""

from repro.cpu import preset_arm920t, preset_powerpc755
from repro.workloads import MicrobenchSpec, run_microbench


def jittery_cores(jitter):
    return (
        preset_powerpc755(),
        preset_arm920t().with_(fiq_response_jitter_cycles=jitter),
    )


class TestJitter:
    def test_zero_jitter_is_default(self):
        assert preset_arm920t().fiq_response_jitter_cycles == 0

    def test_jittered_run_is_deterministic(self):
        spec = MicrobenchSpec("wcs", "proposed", lines=4, iterations=3)
        first = run_microbench(spec, cores=jittery_cores(8)).elapsed_ns
        second = run_microbench(spec, cores=jittery_cores(8)).elapsed_ns
        assert first == second  # seeded per core name: reproducible

    def test_jitter_changes_timing(self):
        spec = MicrobenchSpec("wcs", "proposed", lines=4, iterations=3)
        plain = run_microbench(spec, cores=jittery_cores(0)).elapsed_ns
        noisy = run_microbench(spec, cores=jittery_cores(16)).elapsed_ns
        assert noisy != plain

    def test_jitter_only_delays_never_hastens(self):
        """The jittered take time is never before the base response."""
        spec = MicrobenchSpec("wcs", "proposed", lines=2, iterations=4)
        plain = run_microbench(spec, cores=jittery_cores(0)).elapsed_ns
        noisy = run_microbench(spec, cores=jittery_cores(32)).elapsed_ns
        assert noisy >= plain

    def test_runs_stay_coherent_under_jitter(self):
        spec = MicrobenchSpec("wcs", "proposed", lines=4, iterations=3)
        run_microbench(spec, cores=jittery_cores(12), check=True)

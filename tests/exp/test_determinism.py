"""Parallel sweeps must equal serial ones exactly.

The acceptance bar for the runner: fanning jobs over a worker pool (and
answering repeats from the cache) may change nothing about a figure or
a headline — every job is an independent deterministic simulation and
the runner returns results in submission order, so the regenerated
values are the same floats.
"""

from repro.analysis import compute_headlines, figure5_wcs
from repro.exp import SweepRunner

REDUCED = dict(line_counts=(1, 2), exec_times=(1,), iterations=2)
#: a larger figure, run serially: cold, then warm from the cache
COLD_WARM = dict(line_counts=(1, 2, 4, 8), exec_times=(1, 2), iterations=4)


class TestFigureDeterminism:
    def test_parallel_figure5_is_byte_identical_to_serial(self):
        serial = figure5_wcs(**REDUCED)
        parallel = figure5_wcs(runner=SweepRunner(jobs=4), **REDUCED)
        assert parallel == serial

    def test_cached_rerun_is_byte_identical(self, tmp_path):
        _cold_then_warm(tmp_path, jobs=2, sweep=REDUCED)

    def test_serial_cold_then_warm_sweep(self, tmp_path):
        _cold_then_warm(tmp_path, jobs=1, sweep=COLD_WARM)


def _cold_then_warm(tmp_path, jobs, sweep):
    cold_runner = SweepRunner(jobs=jobs, cache_dir=str(tmp_path))
    cold = figure5_wcs(runner=cold_runner, **sweep)
    n_jobs = cold_runner.manifest()["n_jobs"]
    assert cold_runner.executed == n_jobs
    warm_runner = SweepRunner(jobs=jobs, cache_dir=str(tmp_path))
    warm = figure5_wcs(runner=warm_runner, **sweep)
    assert warm_runner.executed == 0  # answered entirely from cache
    assert warm_runner.cache_hits == n_jobs
    assert warm == cold


class TestHeadlineDeterminism:
    def test_parallel_headlines_match_serial(self):
        serial = compute_headlines(iterations=2, lines=4)
        parallel = compute_headlines(iterations=2, lines=4, runner=SweepRunner(jobs=4))
        assert parallel == serial

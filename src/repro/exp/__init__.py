"""Experiment orchestration: parallel sweeps with on-disk result caching.

The evaluation artefacts (Figures 5-8, the headline numbers, the
ablations) are all produced by sweeps over independent simulator
configurations.  This package turns each sweep into a list of
content-hashable :class:`~repro.exp.jobs.SimJob` objects and hands them
to a :class:`~repro.exp.runner.SweepRunner`, which fans them out over a
``multiprocessing`` worker pool, answers repeats from an on-disk
content-addressed cache, and records a JSON run manifest (per-job wall
time, cache hits, worker utilisation).

Because every job is an independent deterministic simulation and the
runner returns results in submission order, parallel and serial runs
produce identical figures.

Entry point: ``python -m repro bench paper [--jobs N] [--cache-dir
DIR]`` runs the whole evaluation through one runner
(:mod:`repro.exp.paper`), which simulates each distinct payload once.
"""

from .cache import ResultCache, canonical_payload, content_key
from .jobs import MicrobenchJob, SequenceJob, SimJob, job_from_payload
from .runner import JobRecord, SweepRunner, run_jobs

__all__ = [
    "SimJob",
    "MicrobenchJob",
    "SequenceJob",
    "job_from_payload",
    "ResultCache",
    "canonical_payload",
    "content_key",
    "JobRecord",
    "SweepRunner",
    "run_jobs",
]

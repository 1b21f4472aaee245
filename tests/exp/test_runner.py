"""Unit tests for the sweep runner: ordering, caching, manifests."""

import os

import pytest

from repro.errors import SimulationError
from repro.exp import MicrobenchJob, SequenceJob, SweepRunner
from repro.exp.jobs import SimJob
from repro.workloads import MicrobenchSpec


def small_jobs():
    spec = MicrobenchSpec("wcs", "disabled", lines=2, exec_time=1, iterations=2)
    return [
        MicrobenchJob(spec),
        MicrobenchJob(spec.with_(solution="proposed")),
        SequenceJob(("MESI", "MEI"), wrapped=False),
    ]


class _ScriptedJob(SimJob):
    """A job that returns a constant — or dies — for runner tests."""

    kind = "scripted"

    def __init__(self, tag, action="ok"):
        self.tag = tag
        self.action = action

    def payload(self):
        return {"kind": self.kind, "tag": self.tag}

    @property
    def label(self):
        return f"scripted:{self.tag}"

    def run(self):
        if self.action == "interrupt":
            raise KeyboardInterrupt
        if self.action == "crash":
            os._exit(23)
        return {"tag": self.tag}


class TestSweepRunner:
    def test_results_in_submission_order(self):
        jobs = small_jobs()
        results = SweepRunner().run(jobs)
        assert len(results) == len(jobs)
        assert results[0]["elapsed_ns"] > results[1]["elapsed_ns"]  # disabled slower
        assert results[2]["stale_reads"] == 1

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)

    def test_duplicate_jobs_simulate_once(self):
        jobs = small_jobs()
        runner = SweepRunner()
        results = runner.run([jobs[0], jobs[1], jobs[0]])
        assert results[0] == results[2]
        assert runner.executed == 2
        assert runner.manifest()["deduplicated"] == 1

    def test_warm_cache_executes_nothing(self, tmp_path):
        jobs = small_jobs()
        cold = SweepRunner(cache_dir=str(tmp_path))
        cold_results = cold.run(jobs)
        assert cold.executed == len(jobs)

        warm = SweepRunner(cache_dir=str(tmp_path))
        warm_results = warm.run(jobs)
        assert warm.executed == 0
        assert warm.cache_hits == len(jobs)
        assert warm_results == cold_results

    def test_one_runner_simulates_a_payload_once(self):
        jobs = small_jobs()
        runner = SweepRunner()
        first = runner.run(jobs)
        assert runner.executed == len(jobs)
        second = runner.run(jobs)
        assert runner.executed == len(jobs)  # the second call executes 0
        assert second == first
        assert runner.manifest()["deduplicated"] == len(jobs)

    def test_manifest_accumulates_across_sweeps(self, tmp_path):
        jobs = small_jobs()
        runner = SweepRunner(cache_dir=str(tmp_path))
        runner.run(jobs[:2])
        # The first two were finished by this runner: answered from its
        # own results, not re-read from the cache; the third misses.
        runner.run(jobs)
        manifest = runner.manifest()
        assert manifest["sweeps"] == 2
        assert manifest["n_jobs"] == 5
        assert manifest["deduplicated"] == 2
        assert manifest["cache_hits"] == 0
        assert manifest["executed"] == 3
        assert [entry["index"] for entry in manifest["jobs"]] == list(range(5))
        assert all(entry["label"] for entry in manifest["jobs"])

    def test_manifest_written_to_disk(self, tmp_path):
        import json

        runner = SweepRunner(cache_dir=str(tmp_path / "cache"))
        runner.run(small_jobs()[:1])
        path = str(tmp_path / "out" / "manifest.json")
        runner.write_manifest(path)
        with open(path) as handle:
            manifest = json.load(handle)
        assert manifest["n_jobs"] == 1
        assert manifest["jobs"][0]["cache_hit"] is False
        assert manifest["jobs"][0]["wall_s"] > 0

    def test_parallel_pool_matches_serial(self, tmp_path):
        jobs = small_jobs()
        serial = SweepRunner().run(jobs)
        parallel = SweepRunner(jobs=3).run(jobs)
        assert parallel == serial

    def test_summary_mentions_totals(self):
        runner = SweepRunner()
        runner.run(small_jobs()[:1])
        summary = runner.summary()
        assert "1 jobs" in summary and "1 simulated" in summary


class TestInterruptSafety:
    def test_sigint_mid_sweep_keeps_completed_results(self, tmp_path):
        jobs = [
            _ScriptedJob("a"),
            _ScriptedJob("b", action="interrupt"),  # Ctrl-C mid-sweep
            _ScriptedJob("c"),
        ]
        runner = SweepRunner(cache_dir=str(tmp_path))
        with pytest.raises(KeyboardInterrupt):
            runner.run(jobs)
        # The completed job's record and cache entry both survive.
        assert [r.label for r in runner.records] == ["scripted:a"]
        manifest = runner.manifest()
        assert manifest["n_jobs"] == 1
        assert manifest["executed"] == 1

    def test_resumed_sweep_reexecutes_only_unfinished_jobs(self, tmp_path):
        jobs = [
            _ScriptedJob("a"),
            _ScriptedJob("b", action="interrupt"),
            _ScriptedJob("c"),
        ]
        interrupted = SweepRunner(cache_dir=str(tmp_path))
        with pytest.raises(KeyboardInterrupt):
            interrupted.run(jobs)

        fixed = [_ScriptedJob("a"), _ScriptedJob("b"), _ScriptedJob("c")]
        resumed = SweepRunner(cache_dir=str(tmp_path))
        results = resumed.run(fixed)
        assert [r["tag"] for r in results] == ["a", "b", "c"]
        assert resumed.cache_hits == 1      # job "a" answered from disk
        assert resumed.executed == 2        # only b and c re-simulated


class TestWorkerFailures:
    def test_crashed_worker_job_becomes_an_error(self):
        jobs = [_ScriptedJob("a"), _ScriptedJob("boom", action="crash")]
        runner = SweepRunner(jobs=2, max_attempts=1)
        with pytest.raises(SimulationError, match="scripted:boom"):
            runner.run(jobs)

    def test_crash_does_not_lose_sibling_results(self, tmp_path):
        jobs = [_ScriptedJob("a"), _ScriptedJob("boom", action="crash")]
        runner = SweepRunner(jobs=1, cache_dir=str(tmp_path), max_attempts=1)
        # Serial path would raise before caching, so use the pool: a
        # single pending miss falls back to serial — add a second good
        # job to keep two misses pending.
        jobs.insert(0, _ScriptedJob("z"))
        runner = SweepRunner(jobs=2, cache_dir=str(tmp_path), max_attempts=1)
        with pytest.raises(SimulationError):
            runner.run(jobs)
        # The good jobs that finished before the failure are on disk.
        resumed = SweepRunner(jobs=2, cache_dir=str(tmp_path), max_attempts=1)
        results = resumed.run([_ScriptedJob("z"), _ScriptedJob("a")])
        assert resumed.executed <= 2  # at least the crash-adjacent reruns
        assert [r["tag"] for r in results] == ["z", "a"]


class TestManifestAtomicity:
    """Crash mid-write must never tear an existing manifest."""

    def test_interrupted_write_preserves_previous_manifest(
        self, tmp_path, monkeypatch
    ):
        import json as json_module

        runner = SweepRunner(jobs=1)
        runner.run([_ScriptedJob("a")])
        manifest_path = str(tmp_path / "manifest.json")
        runner.write_manifest(manifest_path)
        with open(manifest_path) as handle:
            before = json_module.load(handle)

        # Second sweep crashes mid-dump (the classic torn-write window).
        runner.run([_ScriptedJob("b")])

        def exploding_dump(*args, **kwargs):
            handle = args[1]
            handle.write('{"torn": ')  # bytes hit the disk...
            raise KeyboardInterrupt  # ...then the process dies

        import repro.exp.runner as runner_module

        monkeypatch.setattr(runner_module.json, "dump", exploding_dump)
        with pytest.raises(KeyboardInterrupt):
            runner.write_manifest(manifest_path)
        monkeypatch.undo()

        # The published manifest is still the complete previous one.
        with open(manifest_path) as handle:
            assert json_module.load(handle) == before
        # And no staging debris is left next to it.
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]

    def test_write_into_missing_directory(self, tmp_path):
        runner = SweepRunner(jobs=1)
        runner.run([_ScriptedJob("a")])
        target = tmp_path / "deep" / "nested" / "manifest.json"
        runner.write_manifest(str(target))
        assert target.is_file()

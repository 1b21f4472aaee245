"""The engine contract: the engine dict, surface, run promises.

These tests pin the *shape* of the model/engine split — ``ENGINES``
holds exactly the two shipped engines, every engine implements the
:class:`ISimEngine` surface, each engine keeps its documented promises
on real run results, every trace consumer refuses the same malformed
traces, and
configurations carry no engine tag (an engine is chosen by calling
it, not by configuring it).
"""

import os
import subprocess
import sys

import pytest

from repro.core.platform import SHARED_BASE, Platform, PlatformConfig
from repro.cpu.presets import preset_generic
from repro.engines import (
    ENGINES,
    ISimEngine,
    get_engine,
    reference_config,
    reference_workload,
)
from repro.errors import ConfigError
from repro.exp.cache import DEFAULT_ENGINE
from repro.fuzz.case import FuzzCase, run_case
from repro.workloads.tracegen import TraceAccess, replay_parallel, replay_trace


class TestRegistry:
    def test_registry_covers_the_platform_vocabulary_exactly(self):
        assert list(ENGINES) == ["exact", "batch"]

    def test_unknown_engine_is_a_config_error(self):
        with pytest.raises(ConfigError, match="unknown engine"):
            get_engine("interpretive-dance")

    def test_kernel_engines_are_a_subset(self):
        # Of the engines only exact runs the event kernel.
        config = reference_config()
        accesses = reference_workload(n=100)
        kernel = [name for name, engine in ENGINES.items()
                  if engine.run(config, accesses).events > 0]
        assert kernel == ["exact"]

    def test_every_engine_is_available_here(self):
        # Every engine runs in this environment: both are pure
        # Python, with no optional dependency to fall back from.
        config = reference_config()
        accesses = reference_workload(n=100)
        for name, engine in ENGINES.items():
            result = engine.run(config, accesses)
            assert result.engine == name
            assert result.accesses == len(accesses)

    def test_engines_and_cache_import_no_numpy(self, tmp_path):
        # Every trace workload and the service import these: an
        # optional heavy import here costs every process its load time.
        code = (
            "import sys, repro.engines\n"
            "from repro.exp.cache import ResultCache\n"
            f"ResultCache({str(tmp_path)!r})\n"
            "sys.exit('numpy' in sys.modules)\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_compiled_engine_is_gone(self):
        # Native builds are reported by exact's fingerprint instead.
        with pytest.raises(ConfigError, match="unknown engine"):
            get_engine("compiled")


class TestSurface:
    @pytest.mark.parametrize("name", ["exact", "batch"])
    def test_engine_implements_the_full_surface(self, name):
        engine = get_engine(name)
        assert isinstance(engine, ISimEngine)
        assert engine.name == name
        assert isinstance(engine.version, int) and engine.version >= 1
        assert callable(engine.run)

    @pytest.mark.parametrize("name", ["exact", "batch"])
    def test_fingerprint_carries_cache_key_identity(self, name):
        fp = get_engine(name).fingerprint()
        assert fp["name"] == name
        assert fp["version"] == get_engine(name).version
        assert isinstance(fp["native"], bool)

    def test_capability_flags_match_the_documented_promises(self):
        # The promises hold on real results: exact carries simulated
        # time and kernel events; batch carries neither, nor the
        # timing-only bus.busy* counters.
        config = reference_config()
        accesses = reference_workload(n=200)
        exact = get_engine("exact").run(config, accesses)
        assert exact.elapsed_ns > 0 and exact.events > 0
        batch = get_engine("batch").run(config, accesses)
        assert batch.elapsed_ns == 0 and batch.events == 0
        assert not any(key.startswith("bus.busy") for key in batch.stats)
        assert get_engine("batch").fingerprint()["native"] is False


def _fuzz_case(config, access):
    # A fuzz case reports the refusal as its "error" outcome.
    result = run_case(FuzzCase(
        seed=0,
        protocols=tuple(core.protocol for core in config.cores),
        workload={"kind": "explicit-serial",
                  "accesses": [[access.proc, access.op, access.addr, 0]]},
    ))
    assert result.outcome == "error"
    raise ConfigError(result.detail)


#: every consumer of a trace: both engines, both replays and fuzz cases
TRACE_CALLERS = {
    "exact": lambda config, access: get_engine("exact").run(config, [access]),
    "batch": lambda config, access: get_engine("batch").run(config, [access]),
    "replay_trace": lambda config, access: replay_trace(
        Platform(config), [access]),
    "replay_parallel": lambda config, access: replay_parallel(
        Platform(config), {access.proc: [access]}),
    "fuzz_case": _fuzz_case,
}


class TestTraceRefusal:
    @pytest.mark.parametrize("proc", [-1, 2])
    @pytest.mark.parametrize("name", list(TRACE_CALLERS))
    def test_trace_naming_a_missing_processor_is_refused(self, name, proc):
        # Two masters: -1 must not wrap round to the last one, and 2 is
        # one past the end.
        config = PlatformConfig(
            cores=(preset_generic("p0", "MESI"), preset_generic("p1", "MESI")),
            hardware_coherence=True,
        )
        access = TraceAccess(proc, "read", SHARED_BASE, None)
        with pytest.raises(ConfigError, match="processor the config lacks"):
            TRACE_CALLERS[name](config, access)


class TestSelection:
    def test_config_rejects_unknown_engine(self):
        # Configurations carry no engine tag at all: any engine= is
        # a constructor error, not a silently ignored label.
        with pytest.raises(TypeError, match="engine"):
            PlatformConfig(
                cores=(preset_generic("p0", "MESI"),), engine="warp"
            )

    def test_default_engine_is_exact(self):
        # Runs that name no engine (sweeps, the service) are cached
        # under the exact engine's identity.
        assert DEFAULT_ENGINE == "exact"

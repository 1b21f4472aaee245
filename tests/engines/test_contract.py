"""The engine contract: registry soundness, surface, run promises.

These tests pin the *shape* of the model/engine split — the registry
holds exactly the two shipped engines, every engine implements the
full :class:`ISimEngine` surface, each engine keeps its documented
promises on real run results, and configurations carry no engine tag
(an engine is chosen by calling it, not by configuring it).
"""

import os
import subprocess
import sys

import pytest

from repro.core.platform import PlatformConfig
from repro.cpu.presets import preset_generic
from repro.engines import (
    ISimEngine,
    engine_fingerprint,
    engine_names,
    get_engine,
    reference_config,
    reference_workload,
)
from repro.engines.registry import register_engine
from repro.errors import ConfigError
from repro.exp.cache import DEFAULT_ENGINE


class TestRegistry:
    def test_registry_covers_the_platform_vocabulary_exactly(self):
        assert engine_names() == ["exact", "batch"]

    def test_unknown_engine_is_a_config_error(self):
        with pytest.raises(ConfigError, match="unknown engine"):
            get_engine("interpretive-dance")

    def test_kernel_engines_are_a_subset(self):
        # Of the registered engines only exact runs the event kernel.
        config = reference_config()
        accesses = reference_workload(n=100)
        kernel = [name for name in engine_names()
                  if get_engine(name).run(config, accesses).events > 0]
        assert kernel == ["exact"]

    def test_every_engine_is_available_here(self):
        # Every engine runs in this environment: both are pure
        # Python, with no optional dependency to fall back from.
        config = reference_config()
        accesses = reference_workload(n=100)
        for name in engine_names():
            result = get_engine(name).run(config, accesses)
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

    def test_duplicate_registration_is_rejected(self):
        class Impostor(ISimEngine):
            name = "exact"
            version = 99

            def run(self, config, accesses):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(ConfigError, match="duplicate"):
            register_engine(Impostor)
        # The real engine is still the registered one.
        assert get_engine("exact").version != 99


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
        fp = engine_fingerprint(name)
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
        assert engine_fingerprint("batch")["native"] is False

    def test_lint_surface_validation_is_clean(self):
        from repro.lint.contracts import ENGINES, validate_surface

        assert validate_surface(ENGINES) == []


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

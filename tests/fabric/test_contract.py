"""The fabrics: one dict of bus classes, one tenure loop, one build path."""

import pytest

from repro.bus.asb import AsbBus
from repro.core.platform import FABRIC_NAMES, Platform, PlatformConfig
from repro.cpu.presets import preset_generic
from repro.errors import ConfigError
from repro.fabric import FABRICS, DirectoryFabric, SplitBus
from repro.fuzz.gen import CaseGenerator


def _two_core_config(**overrides):
    cores = (
        preset_generic("p0", "MESI", cache_size=1024),
        preset_generic("p1", "MESI", cache_size=1024),
    )
    return PlatformConfig(cores=cores, hardware_coherence=True, **overrides)


class TestRegistry:
    def test_every_platform_fabric_name_is_registered(self):
        assert FABRIC_NAMES == tuple(FABRICS) == ("atomic", "split", "directory")

    def test_lookup_returns_the_classes(self):
        assert FABRICS["atomic"] is AsbBus
        assert FABRICS["split"] is SplitBus
        assert FABRICS["directory"] is DirectoryFabric

    def test_unknown_fabric_is_a_config_error(self):
        # A fuzz campaign checks its fabric before generating any case.
        with pytest.raises(ConfigError, match="unknown fabric"):
            CaseGenerator(seed=0, fabric="crossbar")

    def test_unknown_fabric_rejected_by_platform_config(self):
        with pytest.raises(ConfigError, match="unknown fabric"):
            _two_core_config(fabric="crossbar")

    def test_no_fabric_defines_its_own_transact(self):
        # One tenure loop: every fabric inherits AsbBus.transact.
        for name, fabric in FABRICS.items():
            for cls in fabric.__mro__:
                if cls is not AsbBus:
                    assert "transact" not in vars(cls), (name, cls.__name__)

    def test_only_the_directory_overrides_the_build(self):
        # One construction path: AsbBus.build; the directory builds one
        # arbiter per home bank instead of one for the whole bus.
        overriding = [
            name for name, cls in FABRICS.items()
            if cls is not AsbBus and "build" in vars(cls)
        ]
        assert overriding == ["directory"]


class TestPlatformWiring:
    @pytest.mark.parametrize("name", FABRIC_NAMES)
    def test_platform_builds_on_every_fabric(self, name):
        platform = Platform(_two_core_config(fabric=name))
        assert type(platform.bus) is FABRICS[name]

    def test_default_fabric_is_the_paper_faithful_atomic(self):
        platform = Platform(_two_core_config())
        assert type(platform.bus) is AsbBus

    @pytest.mark.parametrize("name", FABRIC_NAMES)
    def test_arbitration_disciplines_compose_with_every_fabric(self, name):
        for discipline in ("fcfs", "priority", "round-robin"):
            platform = Platform(
                _two_core_config(fabric=name, arbitration=discipline)
            )
            assert platform.bus.arbiter.grants == 0


class TestBatchEngineRefusal:
    @pytest.mark.parametrize("name", ("split", "directory"))
    def test_batch_engine_refuses_non_atomic_fabrics(self, name):
        from repro.engines import get_engine

        with pytest.raises(ConfigError, match="atomic snoopy bus only"):
            get_engine("batch").run(_two_core_config(fabric=name), [])

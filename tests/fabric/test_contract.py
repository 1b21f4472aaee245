"""The fabric contract: registry, the one tenure loop, fingerprints."""

import pytest

from repro.bus.asb import AsbBus
from repro.core.platform import FABRIC_NAMES, Platform, PlatformConfig
from repro.cpu.presets import preset_generic
from repro.errors import ConfigError
from repro.fabric import (
    AtomicFabric,
    DirectoryFabric,
    IFabric,
    SplitBus,
    fabric_fingerprint,
    fabric_names,
    get_fabric,
    make_fabric,
)


def _two_core_config(**overrides):
    cores = (
        preset_generic("p0", "MESI", cache_size=1024),
        preset_generic("p1", "MESI", cache_size=1024),
    )
    return PlatformConfig(cores=cores, hardware_coherence=True, **overrides)


class TestRegistry:
    def test_every_platform_fabric_name_is_registered(self):
        assert tuple(fabric_names()) == FABRIC_NAMES

    def test_lookup_returns_the_classes(self):
        assert get_fabric("atomic") is AtomicFabric
        assert get_fabric("split") is SplitBus
        assert get_fabric("directory") is DirectoryFabric

    def test_unknown_fabric_is_a_config_error(self):
        with pytest.raises(ConfigError, match="unknown fabric"):
            get_fabric("crossbar")

    def test_unknown_fabric_rejected_by_platform_config(self):
        with pytest.raises(ConfigError, match="unknown fabric"):
            _two_core_config(fabric="crossbar")

    def test_every_fabric_is_an_ifabric(self):
        for name in fabric_names():
            assert issubclass(get_fabric(name), IFabric)

    def test_no_fabric_defines_its_own_transact(self):
        # One tenure loop: every fabric inherits AsbBus.transact.
        for name in fabric_names():
            for cls in get_fabric(name).__mro__:
                if cls is not AsbBus:
                    assert "transact" not in vars(cls), (name, cls.__name__)


class TestFingerprints:
    def test_fingerprints_name_themselves(self):
        for name in fabric_names():
            fingerprint = fabric_fingerprint(name)
            assert fingerprint["name"] == name
            assert "version" in fingerprint

    def test_split_fingerprint_includes_the_window(self):
        assert "max_inflight" in fabric_fingerprint("split")

    def test_directory_fingerprint_includes_the_banks(self):
        fingerprint = fabric_fingerprint("directory")
        assert "banks" in fingerprint and "lookup_cycles" in fingerprint


class TestPlatformWiring:
    @pytest.mark.parametrize("name", FABRIC_NAMES)
    def test_platform_builds_on_every_fabric(self, name):
        platform = Platform(_two_core_config(fabric=name))
        assert platform.bus.name == name
        assert isinstance(platform.bus, AsbBus)  # shared bus surface

    def test_default_fabric_is_the_paper_faithful_atomic(self):
        platform = Platform(_two_core_config())
        assert platform.bus.name == "atomic"

    def test_make_fabric_rejects_unknown_names(self):
        platform = Platform(_two_core_config())
        with pytest.raises(ConfigError, match="unknown fabric"):
            make_fabric(
                "crossbar",
                platform.sim,
                platform.bus.clock,
                platform.memory_controller,
                arbiter_factory=lambda: None,
            )

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

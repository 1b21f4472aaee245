"""The declarative resource table: matching, validation, substitution."""

import textwrap

import pytest

from repro.lint.concur.model import ConcurAnalysis
from repro.lint.concur.resources import DEFAULT_RESOURCES, ResourceSpec


class TestReceiverMatching:
    def spec(self, sid):
        return next(s for s in DEFAULT_RESOURCES if s.id == sid)

    def test_arbiter_receivers(self):
        spec = self.spec("bus-tenure")
        assert spec.matches_receiver("self.arbiter")
        assert spec.matches_receiver("arbiter")
        assert spec.matches_receiver("self.bus.arbiter")
        assert not spec.matches_receiver("self.arbiters")
        assert not spec.matches_receiver("self.subarbiter")

    def test_port_receiver_rejects_suffix_collisions(self):
        spec = self.spec("cache-port")
        assert spec.matches_receiver("self.port")
        assert not spec.matches_receiver("self.transport")
        assert not spec.matches_receiver("self.portal")

    def test_window_slot_matches_only_bare_self(self):
        spec = self.spec("window-slot")
        assert spec.matches_receiver("self")
        assert not spec.matches_receiver("self.window")


class TestSpecValidation:
    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown resource kind"):
            ResourceSpec(id="x", kind="semaphore")

    def test_default_receiver_matches_nothing(self):
        spec = ResourceSpec(id="x", kind="mutex")
        assert not spec.matches_receiver("self.x")
        assert not spec.matches_receiver("")


class TestRegistry:
    def test_custom_resource_drives_the_analysis(self, make_project):
        registry = {spec.id: spec for spec in DEFAULT_RESOURCES}
        registry["dma-channel"] = ResourceSpec(
            id="dma-channel",
            kind="mutex",
            acquire_methods=("claim",),
            release_methods=("unclaim",),
            receiver=r"(^|\.)dma$",
        )
        project = make_project(
            {
                "dma.py": textwrap.dedent(
                    """
                    class Engine:
                        def move(self, desc):
                            yield self.dma.claim()
                            self.dma.unclaim()
                    """
                )
            }
        )
        analysis = ConcurAnalysis(project, registry=registry)
        (fi,) = analysis.by_name["move"]
        assert {key[0] for key in fi.acquire_sites} == {"dma-channel"}

"""Injector arming, validation, proxy coverage and byte-identical replay."""

import importlib

import pytest

from repro.errors import ConfigError, LivelockError
from repro.faults import SITES, FaultSpec, injectors
from repro.faults.matrix import default_matrix, run_entry
from repro.workloads.microbench import (
    MicrobenchSpec,
    build_programs,
    make_platform,
    run_microbench,
)


def test_sites_registry_covers_the_issue_taxonomy():
    assert set(SITES) == {
        "drain.drop",
        "drain.delay",
        "snoop.silent",
        "retry.storm",
        "fiq.lose",
        "fiq.delay",
        "cam.stale",
        "arbiter.starve",
        "mem.delay",
    }


def test_unknown_site_rejected():
    spec = MicrobenchSpec(scenario="wcs", solution="proposed", lines=2,
                          iterations=1)
    with pytest.raises(ConfigError, match="unknown fault site"):
        make_platform(spec, faults=(FaultSpec("bus.gremlin"),))


def test_unknown_master_rejected():
    spec = MicrobenchSpec(scenario="wcs", solution="proposed", lines=2,
                          iterations=1)
    with pytest.raises(ConfigError, match="nobody"):
        make_platform(
            spec, faults=(FaultSpec("drain.drop", master="nobody"),)
        )


def test_starvation_needs_explicit_master():
    spec = MicrobenchSpec(scenario="wcs", solution="proposed", lines=2,
                          iterations=1)
    with pytest.raises(ConfigError, match="explicit master"):
        make_platform(spec, faults=(FaultSpec("arbiter.starve", count=None),))


def test_disabled_faults_change_nothing():
    """No specs armed == pristine platform: identical time and stats."""
    spec = MicrobenchSpec(scenario="wcs", solution="proposed", lines=4,
                          iterations=2)
    pristine = run_microbench(spec)
    gated = run_microbench(spec, faults=())
    assert gated.elapsed_ns == pristine.elapsed_ns
    assert gated.stats == pristine.stats


def test_benign_fault_replays_byte_identically():
    """Same seed, same spec -> identical faulted run, twice over."""
    spec = MicrobenchSpec(scenario="wcs", solution="proposed", lines=4,
                          iterations=2)
    fault = FaultSpec("mem.delay", probability=0.5, count=None,
                      extra_cycles=50, seed=3)
    first = run_microbench(spec, faults=(fault,))
    second = run_microbench(spec, faults=(fault,))
    assert first.elapsed_ns == second.elapsed_ns
    assert first.stats == second.stats


def test_benign_fault_slows_the_run_down():
    spec = MicrobenchSpec(scenario="wcs", solution="proposed", lines=4,
                          iterations=2)
    fault = FaultSpec("mem.delay", probability=1.0, count=None, extra_cycles=100)
    pristine = run_microbench(spec)
    faulted = run_microbench(spec, faults=(fault,))
    assert faulted.elapsed_ns > pristine.elapsed_ns


def test_retry_storm_trips_the_bus_ceiling():
    spec = MicrobenchSpec(scenario="wcs", solution="proposed", lines=2,
                          iterations=1)
    platform = make_platform(
        spec,
        max_bus_retries=20,
        faults=(FaultSpec("retry.storm", master="ppc755", count=None),),
    )
    platform.load_programs(build_programs(spec, platform))
    with pytest.raises(LivelockError) as exc_info:
        platform.run(max_events=500_000)
    error = exc_info.value
    assert error.master == "arm920t"
    assert error.retries == 21
    assert error.report is None  # ceiling, not watchdog


def test_watchdog_detection_replays_identically():
    """Liveness faults abort at the same instant on every run."""
    entry = next(e for e in default_matrix() if e.name == "drain-drop")
    first = run_entry(entry)
    second = run_entry(entry)
    assert first.outcome == second.outcome == "watchdog"
    assert first.detail == second.detail


def _proxies():
    """Classes in ``faults/injectors.py`` that delegate to a wrapped component."""
    return [
        cls for cls in vars(injectors).values()
        if isinstance(cls, type)
        and cls.__module__ == injectors.__name__
        and ("__getattr__" in vars(cls) or "_wraps" in vars(cls))
    ]


def proxy_problems(proxy):
    """What keeps ``proxy`` from covering the class it wraps, one line each."""
    if "_wraps" not in vars(proxy):
        return [f"{proxy.__name__} must declare _wraps"]
    module_name, _, class_name = proxy._wraps.rpartition(".")
    try:
        wrapped = getattr(importlib.import_module(module_name), class_name)
    except (ImportError, AttributeError, ValueError):
        return [f"{proxy.__name__}._wraps {proxy._wraps!r} does not resolve"]
    public = sorted(
        name for name in dir(wrapped)
        if not name.startswith("_") and callable(getattr(wrapped, name))
    )
    return [
        f"{name}; {proxy.__name__} must define it to intercept or delegate"
        for name in public if name not in vars(proxy)
    ]


@pytest.mark.parametrize("proxy", _proxies(), ids=lambda cls: cls.__name__)
def test_proxy_defines_every_public_method_it_wraps(proxy):
    """A method the wrapped class grows must not slip past injection.

    ``__getattr__`` would forward it silently: the fault keeps "passing"
    while no longer intercepting what it was written to perturb.  Each
    proxy names its target in ``_wraps`` and defines every public
    callable of it, intercepting or delegating, in its own body.
    """
    assert proxy_problems(proxy) == []

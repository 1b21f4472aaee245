"""Mutation-style fixtures: every rule fires on the violation and stays
silent on the fixed twin."""

import sys
import textwrap
import types

from repro.lint.core import run_rules
from tests.faults.test_injectors import proxy_problems
from tests.test_slots import classes_with_dict


def _run(make_project, files, rules):
    return run_rules(make_project(files), rules)


class TestDeterminism:
    def test_set_literal_iteration_fires(self, make_project):
        src = "for master in {'m0', 'm1'}:\n    print(master)\n"
        findings = _run(make_project, {"core/x.py": src}, ["determinism"])
        assert [f.rule for f in findings] == ["determinism"]
        assert "set" in findings[0].message

    def test_set_variable_iteration_fires(self, make_project):
        src = textwrap.dedent(
            """
            pending = set()
            for item in pending:
                print(item)
            """
        )
        findings = _run(make_project, {"core/x.py": src}, ["determinism"])
        assert len(findings) == 1

    def test_annotated_self_attr_iteration_fires(self, make_project):
        src = textwrap.dedent(
            """
            from typing import Set

            class Logic:
                def __init__(self):
                    self._cam: Set[int] = set()

                def report(self):
                    return [hex(a) for a in self._cam]
            """
        )
        findings = _run(make_project, {"core/x.py": src}, ["determinism"])
        assert len(findings) == 1

    def test_sorted_iteration_is_silent(self, make_project):
        src = textwrap.dedent(
            """
            pending = set()
            for item in sorted(pending):
                print(item)
            values = sorted(x.value for x in pending)
            """
        )
        assert _run(make_project, {"core/x.py": src}, ["determinism"]) == []

    def test_id_sort_key_fires_and_stable_key_is_silent(self, make_project):
        bad = "items.sort(key=id)\nordered = sorted(items, key=lambda t: id(t))\n"
        good = "items.sort(key=lambda t: t.name)\n"
        assert len(_run(make_project, {"core/x.py": bad}, ["determinism"])) == 2
        assert _run(make_project, {"core/x.py": good}, ["determinism"]) == []

    def test_id_as_dict_key_is_silent(self, make_project):
        src = "inflight = {}\ninflight[id(txn)] = txn\n"
        assert _run(make_project, {"core/x.py": src}, ["determinism"]) == []

    def test_global_random_fires_and_seeded_instance_is_silent(self, make_project):
        bad = "import random\njitter = random.random()\n"
        good = "import random\nrng = random.Random(42)\njitter = rng.random()\n"
        findings = _run(make_project, {"core/x.py": bad}, ["determinism"])
        assert len(findings) == 1 and "unseeded" in findings[0].message
        assert _run(make_project, {"core/x.py": good}, ["determinism"]) == []

    def test_wall_clock_fires_but_not_in_exp(self, make_project):
        src = "import time\nstart = time.perf_counter()\n"
        assert len(_run(make_project, {"core/x.py": src}, ["determinism"])) == 1
        assert _run(make_project, {"exp/runner.py": src}, ["determinism"]) == []


class TestSlots:
    """``slots`` is a runtime check now (``tests/test_slots.py``): the
    same fixtures, executed as modules, prove it fires and stays silent
    where the lint rule did."""

    @staticmethod
    def _with_dict(src):
        module = types.ModuleType("repro.sim.kernel")
        exec(textwrap.dedent(src), vars(module))
        return classes_with_dict(module)

    def test_unslotted_class_in_hot_module_fires(self):
        src = "class Event:\n    def __init__(self):\n        self.x = 1\n"
        assert self._with_dict(src) == {"repro.sim.kernel.Event"}

    def test_slotted_class_is_silent(self):
        src = "class Event:\n    __slots__ = ('x',)\n"
        assert self._with_dict(src) == set()

    def test_slots_dataclass_is_silent(self):
        src = """
            from dataclasses import dataclass

            @dataclass(frozen=True, slots=True)
            class Record:
                x: int
            """
        assert self._with_dict(src) == set()

    def test_dataclass_without_slots_fires(self):
        src = """
            from dataclasses import dataclass

            @dataclass
            class Record:
                x: int
            """
        assert len(self._with_dict(src)) == 1

    def test_enum_and_exception_are_exempt(self):
        src = """
            from enum import Enum

            class State(Enum):
                A = 1

            class KernelError(Exception):
                pass
            """
        assert self._with_dict(src) == set()


class TestTraceGuard:
    def test_unguarded_emit_on_cached_channel_fires(self, make_project):
        src = textwrap.dedent(
            """
            class Controller:
                def load(self, addr):
                    trace = self._trace_cpu
                    trace.emit(self.sim.now, self.name, "load", addr=addr)
            """
        )
        findings = _run(make_project, {"cache/controller.py": src}, ["trace-guard"])
        assert [f.rule for f in findings] == ["trace-guard"]

    def test_guarded_emit_is_silent(self, make_project):
        src = textwrap.dedent(
            """
            class Controller:
                def load(self, addr):
                    trace = self._trace_cpu
                    if trace.enabled:
                        trace.emit(self.sim.now, self.name, "load", addr=addr)
            """
        )
        assert _run(make_project, {"cache/controller.py": src}, ["trace-guard"]) == []

    def test_direct_channel_call_emit_fires(self, make_project):
        src = textwrap.dedent(
            """
            def go(tracer):
                tracer.channel("bus").emit(0, "m0", "grant")
            """
        )
        assert len(_run(make_project, {"bus/asb.py": src}, ["trace-guard"])) == 1

    def test_guard_on_the_wrong_channel_fires(self, make_project):
        src = textwrap.dedent(
            """
            class Controller:
                def load(self, addr):
                    trace = self._trace_cpu
                    other = self._trace_bus
                    if other.enabled:
                        trace.emit(self.sim.now, self.name, "load", addr=addr)
            """
        )
        assert len(_run(make_project, {"cache/controller.py": src}, ["trace-guard"])) == 1

    def test_non_trace_emit_is_ignored(self, make_project):
        src = textwrap.dedent(
            """
            class Assembler:
                def li(self, rd, imm):
                    return self.emit(("LI", rd, imm))
            """
        )
        assert _run(make_project, {"cpu/assembler.py": src}, ["trace-guard"]) == []


class TestProcessYield:
    def test_bad_yield_after_primitive_fires(self, make_project):
        src = textwrap.dedent(
            """
            def worker(sim):
                yield sim.timeout(5)
                yield 5
            """
        )
        findings = _run(make_project, {"core/x.py": src}, ["process-yield"])
        assert [f.rule for f in findings] == ["process-yield"]
        assert "Constant" in findings[0].message

    def test_bare_yield_fires(self, make_project):
        src = textwrap.dedent(
            """
            def worker(sim):
                yield sim.timeout(5)
                yield
            """
        )
        findings = _run(make_project, {"core/x.py": src}, ["process-yield"])
        assert len(findings) == 1 and "bare yield" in findings[0].message

    def test_generator_registered_via_process_call_fires(self, make_project):
        src = textwrap.dedent(
            """
            def plain():
                yield (1, 2)

            def setup(sim):
                sim.process(plain())
            """
        )
        assert len(_run(make_project, {"core/x.py": src}, ["process-yield"])) == 1

    def test_yield_from_delegation_is_followed(self, make_project):
        src = textwrap.dedent(
            """
            def helper(sim):
                yield "oops"

            def worker(sim):
                yield sim.timeout(5)
                yield from helper(sim)
            """
        )
        findings = _run(make_project, {"core/x.py": src}, ["process-yield"])
        assert len(findings) == 1
        assert "helper" in findings[0].message

    def test_event_yields_are_silent(self, make_project):
        src = textwrap.dedent(
            """
            def worker(sim, bus):
                yield sim.timeout(5)
                grant = bus.arbiter.request("m0")
                yield grant
                yield sim.all_of([grant, sim.timeout(1)])
            """
        )
        assert _run(make_project, {"core/x.py": src}, ["process-yield"]) == []

    def test_plain_data_generator_is_ignored(self, make_project):
        src = textwrap.dedent(
            """
            def words(text):
                for w in text.split():
                    yield w
            """
        )
        assert _run(make_project, {"core/x.py": src}, ["process-yield"]) == []


class InterruptLine:
    def assert_line(self):
        pass

    def deassert(self):
        pass

    def wait(self):
        pass

    def _internal(self):
        pass


class TestFaultProxy:
    """``fault-proxy`` is a runtime check now
    (``tests/faults/test_injectors.py``); these fixtures prove it fires
    and stays silent where the lint rule did."""

    @staticmethod
    def _wrapped(monkeypatch):
        module = types.ModuleType("fixture_interrupts")
        module.InterruptLine = InterruptLine
        monkeypatch.setitem(sys.modules, module.__name__, module)

    def test_getattr_without_wraps_fires(self):
        class _Proxy:
            def __getattr__(self, name):
                return getattr(self._inner, name)

        problems = proxy_problems(_Proxy)
        assert len(problems) == 1 and "_wraps" in problems[0]

    def test_missing_public_method_fires(self, monkeypatch):
        self._wrapped(monkeypatch)

        class _Proxy:
            _wraps = "fixture_interrupts.InterruptLine"

            def assert_line(self):
                pass

            def __getattr__(self, name):
                return getattr(self._inner, name)

        missing = sorted(p.split(";")[0] for p in proxy_problems(_Proxy))
        assert missing == ["deassert", "wait"]

    def test_full_coverage_is_silent(self, monkeypatch):
        self._wrapped(monkeypatch)

        class _Proxy:
            _wraps = "fixture_interrupts.InterruptLine"

            def assert_line(self):
                pass

            def deassert(self):
                pass

            def wait(self):
                pass

            def __getattr__(self, name):
                return getattr(self._inner, name)

        assert proxy_problems(_Proxy) == []

    def test_unresolvable_wraps_fires(self):
        class _Proxy:
            _wraps = "repro.nowhere.Nothing"

        problems = proxy_problems(_Proxy)
        assert len(problems) == 1 and "does not resolve" in problems[0]


class TestEngineContract:
    def test_absolute_import_in_model_code_fires(self, make_project):
        src = "import repro.engines\n"
        findings = _run(make_project, {"core/x.py": src}, ["engine-contract"])
        assert [f.rule for f in findings] == ["engine-contract"]
        assert "one-way" in findings[0].message

    def test_from_import_fires(self, make_project):
        src = "from repro.engines.batch import BatchEngine\n"
        findings = _run(make_project, {"cache/x.py": src}, ["engine-contract"])
        assert len(findings) == 1
        assert "repro.engines.batch" in findings[0].message

    def test_relative_import_fires(self, make_project):
        src = "from ..engines import get_engine\n"
        findings = _run(make_project, {"bus/x.py": src}, ["engine-contract"])
        assert len(findings) == 1
        assert "..engines" in findings[0].message

    def test_sanctioned_consumers_are_silent(self, make_project):
        src = "from repro.engines import get_engine\n"
        files = {
            "engines/x.py": src,
            "exp/x.py": src,
            "__main__.py": src,
        }
        assert _run(make_project, files, ["engine-contract"]) == []

    def test_model_import_of_the_model_is_silent(self, make_project):
        src = "from repro.core.platform import FABRIC_NAMES\n"
        assert _run(make_project, {"core/x.py": src}, ["engine-contract"]) == []


class TestFabricContract:
    def test_absolute_import_in_model_code_fires(self, make_project):
        src = "import repro.fabric\n"
        findings = _run(make_project, {"bus/x.py": src}, ["fabric-contract"])
        assert [f.rule for f in findings] == ["fabric-contract"]
        assert "one-way" in findings[0].message

    def test_from_import_fires(self, make_project):
        src = "from repro.fabric.split import SplitBus\n"
        findings = _run(make_project, {"cache/x.py": src}, ["fabric-contract"])
        assert len(findings) == 1
        assert "repro.fabric.split" in findings[0].message

    def test_relative_import_fires(self, make_project):
        src = "from ..fabric import make_fabric\n"
        findings = _run(make_project, {"bus/x.py": src}, ["fabric-contract"])
        assert len(findings) == 1
        assert "..fabric" in findings[0].message

    def test_sanctioned_consumers_are_silent(self, make_project):
        src = "from repro.fabric import make_fabric\n"
        files = {
            "fabric/x.py": src,
            "core/platform.py": src,
            "exp/x.py": src,
            "__main__.py": src,
        }
        assert _run(make_project, files, ["fabric-contract"]) == []

    def test_vocabulary_cycle_fires(self, make_project):
        # The fabric package must not import the platform back.
        src = "from ..core.platform import FABRIC_NAMES\n"
        findings = _run(
            make_project, {"fabric/x.py": src}, ["fabric-contract"]
        )
        assert len(findings) == 1
        assert "vocabulary" in findings[0].message

    def test_fabric_importing_the_bus_is_silent(self, make_project):
        src = "from ..bus.asb import AsbBus\n"
        files = {"fabric/x.py": src}
        assert _run(make_project, files, ["fabric-contract"]) == []

"""Tests for the benchmark's span recorder and layer wrappers.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import spans  # noqa: E402
from layers import LayerProbe  # noqa: E402
from spans import Patcher, Recorder, aggregate, load, wrap_gen, wrap_sync  # noqa: E402


@pytest.fixture
def ticks(monkeypatch):
    """Replace the recorder's clock with one that reads from a list."""
    values = []
    monkeypatch.setattr(spans, "_clock", lambda: values.pop(0))
    return values


class TestSelfTime:
    def test_children_subtract_from_parent(self, ticks):
        rec = Recorder()
        inner = wrap_sync(lambda: None, rec, "inner")

        def body():
            inner()
            inner()

        outer = wrap_sync(body, rec, "outer")
        # outer opens at 0; inner 1..3 and 4..8; outer closes at 10
        ticks.extend([0.0, 1.0, 3.0, 4.0, 8.0, 10.0])
        outer()
        agg = aggregate(rec)
        assert agg["outer"]["self_s"] == pytest.approx(10.0 - 2.0 - 4.0)
        assert agg["inner"]["self_s"] == pytest.approx(6.0)
        assert agg["outer"]["total_s"] == pytest.approx(10.0)
        assert rec.calls == {"inner": 2, "outer": 1}

    def test_grandchildren_subtract_only_from_their_parent(self, ticks):
        rec = Recorder()
        leaf = wrap_sync(lambda: None, rec, "leaf")
        mid = wrap_sync(lambda: leaf(), rec, "mid")
        top = wrap_sync(lambda: mid(), rec, "top")
        ticks.extend([0.0, 2.0, 3.0, 4.0, 7.0, 9.0])
        top()
        agg = aggregate(rec)
        assert agg["top"]["self_s"] == pytest.approx(9.0 - 5.0)
        assert agg["mid"]["self_s"] == pytest.approx(5.0 - 1.0)
        assert agg["leaf"]["self_s"] == pytest.approx(1.0)

    def test_recursive_call_counts_once(self):
        rec = Recorder()

        class Base:
            def f(self):
                return 1

        class Derived(Base):
            def f(self):
                return super().f() + 1

        patcher = Patcher()
        for cls in (Base, Derived):
            patcher.patch(cls, "f", lambda fn: wrap_sync(fn, rec, "f"))
        try:
            assert Derived().f() == 2
        finally:
            patcher.restore()
        assert rec.calls["f"] == 1
        assert aggregate(rec)["f"]["spans"] == 2

    def test_dump_and_load_round_trip(self, tmp_path):
        rec = Recorder()
        inner = wrap_sync(lambda: None, rec, "inner")
        wrap_sync(lambda: inner(), rec, "outer")()
        path = str(tmp_path / "x.spans")
        rec.dump(path)
        back = load(path)
        assert list(back.spans()) == list(rec.spans())
        assert back.calls == rec.calls
        assert aggregate(back) == aggregate(rec)


class TestGeneratorPassThrough:
    def test_forwards_send_throw_and_return(self):
        rec = Recorder()

        def worker(start):
            got = yield start
            try:
                yield got * 2
            except KeyError as exc:
                got = f"caught {exc.args[0]}"
            yield got
            return "done"

        gen = wrap_gen(worker, rec, "w")(5)
        assert next(gen) == 5
        assert gen.send(21) == 42
        assert gen.throw(KeyError("k")) == "caught k"
        with pytest.raises(StopIteration) as stop:
            gen.send(None)
        assert stop.value.value == "done"
        assert rec.calls["w"] == 1
        # one span per resumption, all closed
        assert aggregate(rec)["w"]["spans"] == 4

    def test_unhandled_throw_propagates_and_closes_span(self):
        rec = Recorder()

        def worker():
            yield 1

        gen = wrap_gen(worker, rec, "w")()
        next(gen)
        with pytest.raises(ValueError):
            gen.throw(ValueError("boom"))
        assert all(end >= start for _n, start, end, _p, _t in rec.spans())
        assert not rec._buffer().stack

    def test_yield_from_delegation_nests_spans(self, ticks):
        rec = Recorder()

        def inner():
            yield "x"
            return 7

        wrapped_inner = wrap_gen(inner, rec, "inner")

        def outer():
            value = yield from wrapped_inner()
            return value

        gen = wrap_gen(outer, rec, "outer")()
        ticks.extend([0.0, 1.0, 2.0, 3.0,   # first resumption
                      10.0, 11.0, 14.0, 16.0])  # second
        assert next(gen) == "x"
        with pytest.raises(StopIteration) as stop:
            next(gen)
        assert stop.value.value == 7
        agg = aggregate(rec)
        assert agg["inner"]["self_s"] == pytest.approx(1.0 + 3.0)
        assert agg["outer"]["self_s"] == pytest.approx(2.0 + 3.0)


def _small_storm(seed: int = 1):
    from workloads import trace_inputs

    config, accesses = trace_inputs("coherence-storm", seed)
    return config, accesses[:600]


class TestLayerProbe:
    @pytest.mark.parametrize("engine_name", ["exact", "batch"])
    def test_wrapped_replay_matches_unwrapped(self, engine_name):
        from repro.engines import get_engine
        from workloads import exact_view

        config, accesses = _small_storm()
        engine = get_engine(engine_name)
        plain = engine.run(config, accesses)
        probe = LayerProbe()
        probe.install_model()
        try:
            traced = engine.run(config, accesses)
        finally:
            probe.uninstall()
        assert exact_view(traced) == exact_view(plain)
        assert probe.rec.span_count() > 0
        if engine_name == "exact":
            metrics = probe.metrics(1, 1.0)
            assert metrics["bus.txns"] == plain.stats["bus.txns"]
            assert metrics["bus.retries"] == plain.stats.get("bus.retries", 0)
            assert metrics["sim.events"] == plain.events
            assert metrics["sim.elapsed_ns"] == plain.elapsed_ns
            assert metrics["cache.controller.accesses"] == len(accesses)

    def test_originals_restored(self):
        from repro.bus.asb import AsbBus
        from repro.cache.array import CacheArray
        from repro.cache.controller import CacheController
        from repro.cache.protocols.mesi import MESIProtocol
        from repro.exp.runner import SweepRunner
        from repro.service import scheduler
        from repro.sim.kernel import Simulator

        targets = [(CacheController, "read"), (CacheController, "drain_line"),
                   (CacheArray, "lookup"), (AsbBus, "transact"),
                   (MESIProtocol, "snoop"), (Simulator, "run"),
                   (SweepRunner, "run"), (scheduler, "execute_submission")]
        before = [vars(owner)[attr] for owner, attr in targets]
        probe = LayerProbe()
        probe.install_model()
        probe.install_exp()
        probe.install_service()
        assert all(vars(owner)[attr] is not orig
                   for (owner, attr), orig in zip(targets, before))
        probe.uninstall()
        assert [vars(owner)[attr] for owner, attr in targets] == before


class TestDeclaredMetrics:
    def _benchmark(self):
        import json

        with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"),
                  encoding="utf-8") as handle:
            return json.load(handle)

    def test_per_layer_metrics_match_benchmark_json(self):
        from layers import PER_LAYER

        declared = [(m["name"], m["unit"]) for m in self._benchmark()["per_layer"]]
        assert declared == PER_LAYER
        assert list(LayerProbe().metrics(1, 1.0)) == [name for name, _u in PER_LAYER]

    def test_end_to_end_metrics_match_benchmark_json(self):
        from run import E2E_UNITS

        declared = {m["name"]: m["unit"] for m in self._benchmark()["end_to_end"]}
        assert declared == E2E_UNITS

    def test_workloads_match_benchmark_json(self):
        from workloads import WORKLOADS

        assert [w["name"] for w in self._benchmark()["workloads"]] == WORKLOADS

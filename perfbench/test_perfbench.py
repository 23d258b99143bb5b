"""Tests of the benchmark's own arithmetic and pins.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _play(recorder: layers.Recorder, clock: FakeClock, events) -> None:
    """Drive ``(time, name)`` events: a name opens a span, None closes one."""
    for at, name in events:
        clock.now = at
        if name is None:
            recorder.exit()
        else:
            recorder.enter(name)


def test_self_time_subtracts_children():
    clock = FakeClock()
    recorder = layers.Recorder(clock=clock)
    _play(recorder, clock, [
        (0, "a"),
        (1, "b"), (2, "c"), (4, None), (5, None),   # b [1, 5] holds c [2, 4]
        (6, "b"), (7, None),                         # b [6, 7]
        (10, None),                                  # a [0, 10]
        (11, "c"), (12, None),                       # a root-level c
    ])
    assert recorder.total == {"a": 10, "b": 5, "c": 3}
    assert recorder.self_time == {"a": 5, "b": 3, "c": 3}
    assert recorder.calls == {"a": 1, "b": 2, "c": 2}
    # Self times tile the time covered by root spans exactly.
    assert recorder.attributed() == 11


def test_recursion_counts_total_once():
    clock = FakeClock()
    recorder = layers.Recorder(clock=clock)
    _play(recorder, clock, [(0, "a"), (1, "a"), (3, None), (4, None)])
    assert recorder.total["a"] == 4
    assert recorder.self_time["a"] == 4
    assert recorder.calls["a"] == 2


def test_scope_closes_on_error():
    clock = FakeClock()
    recorder = layers.Recorder(clock=clock)
    with pytest.raises(ValueError):
        with recorder.scope("x"):
            clock.now = 2
            raise ValueError
    assert recorder.total["x"] == 2
    assert not recorder._stack


def test_layer_values_read_self_total_and_counts():
    clock = FakeClock()
    recorder = layers.Recorder(clock=clock)
    _play(recorder, clock, [
        (0, "autotm.solve_ilp"), (1, "autotm.highs"), (4, None), (5, None),
        (6, "autotm.solve_ilp"), (7, None),
    ])
    recorder.add("cache.hits", 3)
    recorder.add("cache.dirty_misses", 1)
    values = layers.layer_values(recorder, layers.PINS)
    assert values["autotm.solve_ilp_self_s"] == 3
    assert values["autotm.highs_s"] == 3
    assert values["autotm.solves"] == 2
    assert values["cache.hit_rate"] == 0.75
    assert values["nn.arena_allocate_s"] == 0


def test_patcher_rebinds_every_caller(monkeypatch):
    def target(x):
        return x + 1

    home = types.ModuleType("repro._bench_home")
    home.target = target
    caller = types.ModuleType("repro._bench_caller")
    caller.alias = target
    caller.REGISTRY = {"entry": target}
    monkeypatch.setitem(sys.modules, home.__name__, home)
    monkeypatch.setitem(sys.modules, caller.__name__, caller)

    recorder = layers.Recorder()
    patcher = layers.Patcher(recorder)
    patcher.function(target, "layer.target")
    patcher.install()
    assert home.target(1) == caller.alias(1) == caller.REGISTRY["entry"](1) == 2
    assert recorder.calls["layer.target"] == 3
    assert patcher.unpatched() == []


def test_patcher_refuses_unreachable_function():
    patcher = layers.Patcher(layers.Recorder())
    patcher.function(lambda: None, "layer.nowhere")
    with pytest.raises(RuntimeError, match="no caller binding"):
        patcher.install()


def test_pins_match_the_program():
    pytest.importorskip("repro")
    from repro.experiments.headline import PAPER_BASELINES
    from repro.experiments.kvtrace import TRACE_SPECS, TRACE_SEED
    from repro.experiments.registry import registered_names
    from repro.traces import HARDWARE_MODELS

    pins = layers.PINS
    paper = {
        f"{experiment}.{metric}": value
        for experiment, metrics in PAPER_BASELINES.items()
        for metric, value in metrics.items()
    }
    assert pins["paper_baselines"]["paper-quick"] == paper
    assert pins["paper_baselines"]["autotm-cnn"] == {
        key: value for key, value in paper.items() if key.startswith("table2.")
    }
    assert pins["experiments"] == registered_names()
    assert pins["traces"] == list(TRACE_SPECS)
    assert pins["cache_models"] == list(HARDWARE_MODELS)
    assert pins["seeds"]["default"] == TRACE_SEED


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {name: unit for name, unit, _, _ in layers.metric_table(layers.PINS)}
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(units.items())
    for workload, names in layers.PINS["exercised"].items():
        assert set(names) <= set(units), workload
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(layers.PINS["exercised"])

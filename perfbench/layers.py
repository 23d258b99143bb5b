"""Per-layer spans for the traced benchmark run.

The traced run wraps the boundary functions of each layer of the
``repro`` package from the benchmark's own files: the program itself is
not edited.  Every wrapped call is one span.  A :class:`Recorder` keeps
the span stack and charges each span's duration minus its children's
durations to the span's own name (its self time), so time spent in
numpy or in unwrapped helpers is charged to the nearest wrapped caller.

Spans are also written, as Chrome trace events, into a private
:class:`repro.obs.SpanTracer`; the process-wide telemetry handle stays
disabled, so the program's own instrumentation does not run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: Names, seeds, paper values and expectations the benchmark pins.
PINS: Dict[str, Any] = json.loads((Path(__file__).parent / "definitions.json").read_text())

#: At most this many spans of one name go into the Chrome trace; the
#: per-name totals always cover every call.  Hot leaves (Traffic
#: arithmetic, segmentation) run hundreds of thousands of times.
MAX_TRACE_SPANS_PER_NAME = 2000


class Recorder:
    """Call counts, inclusive time and self time per span name.

    ``total[name]`` counts only outermost spans of a name, so recursion
    is not counted twice; ``self_time`` sums over every span.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter, tracer=None) -> None:
        self.clock = clock
        self.tracer = tracer
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._open: Dict[str, int] = defaultdict(int)
        # [name, start, time covered by finished children]
        self._stack: List[list] = []
        self._emitted: Dict[str, int] = defaultdict(int)

    def enter(self, name: str) -> None:
        self._open[name] += 1
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, children = self._stack.pop()
        end = self.clock()
        duration = end - start
        self.calls[name] += 1
        self.self_time[name] += duration - children
        self._open[name] -= 1
        if not self._open[name]:
            self.total[name] += duration
        if self._stack:
            self._stack[-1][2] += duration
        if self.tracer is not None and self._emitted[name] < MAX_TRACE_SPANS_PER_NAME:
            self._emitted[name] += 1
            self._emit(name, start, end)

    def _emit(self, name: str, start: float, end: float) -> None:
        from repro.obs import SpanRecord

        origin = self.tracer.origin_abs
        self.tracer.records.append(
            SpanRecord(
                name=name,
                cat=name.split(".", 1)[0],
                depth=len(self._stack),
                wall_start=start - origin,
                wall_end=end - origin,
            )
        )

    @contextlib.contextmanager
    def scope(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def add(self, name: str, value: float) -> None:
        """Accumulate a count observed at a layer boundary."""
        self.counts[name] += value

    def attributed(self) -> float:
        """Host seconds covered by some span (the sum of self times)."""
        return sum(self.self_time.values())


def span(recorder: Recorder, fn: Callable, name: Any, observe: Optional[Callable] = None):
    """``fn`` wrapped in a span; ``name`` is a string or ``(args, kwargs) -> str``.

    ``observe(recorder, args, kwargs, result)`` runs after the span has
    closed, so its cost is charged to the caller, not to the layer.
    """
    fixed = name if isinstance(name, str) else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder.enter(fixed or name(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.exit()
        if observe is not None:
            observe(recorder, args, kwargs, result)
        return result

    return wrapper


# -- patching ----------------------------------------------------------------


def _repro_modules() -> List[Any]:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _bindings(targets: Iterable[int]) -> List[Tuple[Any, Any, int]]:
    """Every ``(namespace, key, id)`` through which callers reach a target.

    Callers look a function up as a module global (``from x import f``
    binds a new name in the importing module) or through a module-level
    registry dict (``EXPERIMENTS``, ``_BUILDERS``, ``GENERATORS``).
    """
    wanted = set(targets)
    found = []
    for module in _repro_modules():
        for key, value in list(vars(module).items()):
            if id(value) in wanted:
                found.append((module, key, id(value)))
            elif isinstance(value, dict) and not key.startswith("__"):
                for item_key, item in list(value.items()):
                    if id(item) in wanted:
                        found.append((value, item_key, id(item)))
    return found


def _set(namespace, key, value) -> None:
    if isinstance(namespace, dict):
        namespace[key] = value
    else:
        setattr(namespace, key, value)


class Patcher:
    """Installs span wrappers and can prove none was bypassed."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._functions: Dict[int, Tuple[Callable, Callable]] = {}

    def function(self, fn: Callable, name: Any, observe: Optional[Callable] = None) -> None:
        """Wrap a plain function everywhere callers can look it up."""
        self._functions[id(fn)] = (fn, span(self.recorder, fn, name, observe))

    def method(self, cls: type, attr: str, name: Any, observe: Optional[Callable] = None) -> None:
        """Wrap a method (or classmethod) defined on ``cls``; subclasses inherit it."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(span(self.recorder, raw.__func__, name, observe)))
        else:
            setattr(cls, attr, span(self.recorder, raw, name, observe))

    def install(self) -> None:
        """Rebind every registered function where its callers look it up."""
        bindings = _bindings(self._functions)
        for namespace, key, ident in bindings:
            _set(namespace, key, self._functions[ident][1])
        missing = set(self._functions) - {ident for _, _, ident in bindings}
        if missing:
            names = sorted(self._functions[i][0].__qualname__ for i in missing)
            raise RuntimeError(f"no caller binding found for {', '.join(names)}")

    def unpatched(self) -> List[str]:
        """Bindings that still reach an original function (should be none)."""
        return [
            f"{getattr(namespace, '__name__', 'dict')}.{key}"
            for namespace, key, _ in _bindings(self._functions)
        ]


# -- the layer boundaries ----------------------------------------------------

#: Replay model name per cache class (the keys of
#: ``repro.traces.MODEL_FACTORIES``); write-around is a direct-mapped
#: cache that does not insert on write misses.
_MODEL_OF_CLASS = {
    "DirectMappedCache": "direct_mapped",
    "MissPredictorCache": "miss_predictor",
    "BypassCache": "bypass",
    "NextLinePrefetchCache": "prefetch",
    "SectorCache": "sector",
    "SetAssociativeCache": "setassoc_lru",
}

TAG_FIELDS = ("hits", "clean_misses", "dirty_misses", "ddo_writes")
DEVICE_FIELDS = ("dram_reads", "dram_writes", "nvram_reads", "nvram_writes")


def cache_model(cache) -> str:
    name = _MODEL_OF_CLASS[type(cache).__name__]
    if name == "direct_mapped" and not cache.insert_on_write_miss:
        return "write_around"
    return name


def _cache_span(op: str) -> Callable:
    return lambda args, kwargs: f"cache.{cache_model(args[0])}.{op}"


def _observe_access(recorder: Recorder, args, kwargs, report) -> None:
    traffic = report.traffic
    recorder.add("memsys.lines", traffic.total_accesses)
    for field in DEVICE_FIELDS:
        recorder.add(f"memsys.{field}", getattr(traffic, field))


def _observe_tags(recorder: Recorder, args, kwargs, result) -> None:
    tags = result[1]
    for field in TAG_FIELDS:
        recorder.add(f"cache.{field}", getattr(tags, field))


def _observe_sweep(recorder: Recorder, args, kwargs, result) -> None:
    recorder.add("exec.sweep_points", len(result))


def install(recorder: Recorder) -> Patcher:
    """Wrap every layer boundary the per-layer metrics are read from."""
    import scipy.optimize

    from repro.autotm import PlacementProblem, execute_autotm, solve_ilp
    from repro.autotm.dma import execute_autotm_async
    from repro.cache import DirectMappedCache, SectorCache, SetAssociativeCache
    from repro.exec import run_sweep
    from repro.experiments import kvtrace
    from repro.experiments.registry import EXPERIMENTS, run_experiment
    from repro.kernels import run_kernel
    from repro.memsys.backends import _EpochSupport
    from repro.nn import build_training_graph, execute_iteration, plan_memory
    from repro.nn.networks import densenet264, gpt_like, inception_v4, resnet200
    from repro.nn.planner import FirstFitArena
    from repro.perf.counters import Traffic
    from repro.perf.segments import segment
    from repro.service.store import ResultStore
    from repro.traces import generate, replay_trace

    patcher = Patcher(recorder)
    for name, fn in EXPERIMENTS.items():
        patcher.function(fn, f"experiments.{name}")
    patcher.function(run_experiment, "experiments.run_experiment")
    patcher.function(run_sweep, "exec.run_sweep", _observe_sweep)
    patcher.method(PlacementProblem, "build", "autotm.problem_build")
    patcher.function(solve_ilp, "autotm.solve_ilp")
    patcher.function(scipy.optimize.milp, "autotm.highs")
    patcher.function(execute_autotm, "autotm.execute")
    patcher.function(execute_autotm_async, "autotm.dma_execute")
    for builder in (build_training_graph, densenet264, gpt_like, inception_v4, resnet200):
        patcher.function(builder, "nn.build_graph")
    patcher.function(plan_memory, "nn.plan_memory")
    patcher.method(FirstFitArena, "allocate", "nn.arena_allocate")
    patcher.function(execute_iteration, "nn.execute_iteration")
    patcher.method(_EpochSupport, "access", "memsys.access", _observe_access)
    for cls in (DirectMappedCache, SectorCache, SetAssociativeCache):
        patcher.method(cls, "llc_read", _cache_span("read"), _observe_tags)
        patcher.method(cls, "llc_write", _cache_span("write"), _observe_tags)
    patcher.function(segment, "perf.segment")
    patcher.method(Traffic, "__add__", "perf.traffic_add")
    patcher.method(Traffic, "__iadd__", "perf.traffic_add")
    patcher.function(generate, "traces.generate")
    patcher.function(replay_trace, "traces.replay")
    patcher.function(
        kvtrace.replay_point, lambda args, kwargs: f"traces.{kwargs['trace']}"
    )
    patcher.function(run_kernel, "kernels.run_kernel")
    patcher.method(ResultStore, "put", "service.store_put")
    patcher.install()
    return patcher


# -- per-layer metrics -------------------------------------------------------

def metric_table(pins: Dict[str, Any]) -> List[Tuple[str, str, str, str]]:
    """``(metric, unit, reading, span or count name)`` per per-layer metric.

    The experiment, trace and cache-model names are pinned in
    ``definitions.json``, so the metric set does not follow the program.
    Rows with reading ``"run"`` are filled from the whole run, not from
    one span name.
    """
    rows = [(f"experiments.{name}_s", "s", "total", f"experiments.{name}")
            for name in pins["experiments"]]
    rows += [
        ("experiments.run_calls", "count", "calls", "experiments.run_experiment"),
        ("exec.run_sweep_self_s", "s", "self", "exec.run_sweep"),
        ("exec.sweep_points", "count", "count", "exec.sweep_points"),
        ("autotm.problem_build_s", "s", "total", "autotm.problem_build"),
        ("autotm.solve_ilp_self_s", "s", "self", "autotm.solve_ilp"),
        ("autotm.highs_s", "s", "total", "autotm.highs"),
        ("autotm.solves", "count", "calls", "autotm.solve_ilp"),
        ("autotm.execute_self_s", "s", "self", "autotm.execute"),
        ("autotm.dma_execute_self_s", "s", "self", "autotm.dma_execute"),
        ("nn.build_graph_s", "s", "total", "nn.build_graph"),
        ("nn.plan_memory_s", "s", "total", "nn.plan_memory"),
        ("nn.arena_allocate_s", "s", "total", "nn.arena_allocate"),
        ("nn.arena_allocate_calls", "count", "calls", "nn.arena_allocate"),
        ("nn.execute_iteration_self_s", "s", "self", "nn.execute_iteration"),
        ("memsys.access_self_s", "s", "self", "memsys.access"),
        ("memsys.access_calls", "count", "calls", "memsys.access"),
        ("memsys.lines", "count", "count", "memsys.lines"),
    ]
    rows += [(f"memsys.{field}", "count", "count", f"memsys.{field}") for field in DEVICE_FIELDS]
    rows.append(("memsys.sim_s", "s", "run", ""))
    for model in pins["cache_models"]:
        rows.append((f"cache.{model}.read_s", "s", "self", f"cache.{model}.read"))
        rows.append((f"cache.{model}.write_s", "s", "self", f"cache.{model}.write"))
    rows += [(f"cache.{field}", "count", "count", f"cache.{field}") for field in TAG_FIELDS]
    rows += [
        ("cache.hit_rate", "ratio", "run", ""),
        ("perf.segment_s", "s", "total", "perf.segment"),
        ("perf.segment_calls", "count", "calls", "perf.segment"),
        ("perf.traffic_add_s", "s", "total", "perf.traffic_add"),
        ("perf.traffic_add_calls", "count", "calls", "perf.traffic_add"),
        ("traces.generate_s", "s", "total", "traces.generate"),
        ("traces.replay_self_s", "s", "self", "traces.replay"),
    ]
    rows += [(f"traces.{trace}_s", "s", "total", f"traces.{trace}") for trace in pins["traces"]]
    rows += [
        ("kernels.run_kernel_s", "s", "total", "kernels.run_kernel"),
        ("service.store_put_s", "s", "total", "service.store_put"),
        ("unattributed_s", "s", "run", ""),
        ("obs.trace_overhead_pct", "%", "run", ""),
    ]
    return rows


def layer_values(recorder: Recorder, pins: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric the recorder alone determines."""
    sources = {
        "total": recorder.total,  # inclusive time of the outermost spans
        "self": recorder.self_time,
        "calls": recorder.calls,
        "count": recorder.counts,  # observed at the boundary
    }
    values = {
        metric: sources[reading][name]
        for metric, _, reading, name in metric_table(pins)
        if reading != "run"
    }
    checks = sum(recorder.counts[f"cache.{field}"] for field in TAG_FIELDS[:3])
    values["cache.hit_rate"] = recorder.counts["cache.hits"] / checks if checks else 0.0
    return values

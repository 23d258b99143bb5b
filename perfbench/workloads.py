"""The benchmark's workloads: set-up, timed part and output checks.

Each workload is a :class:`Workload`.  ``setup(seed, workdir)`` builds
the inputs (this is what ``setup_s`` measures, after the import of
``repro``); ``run(inputs)`` is the timed part and ends with the output
checks, returning an :class:`Outcome`.  The program only ever receives
the generated inputs; the seed never reaches it directly.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ContextManager, Dict, FrozenSet, List

NETWORKS = ("inception_v4", "resnet200", "densenet264")


@dataclass
class Outcome:
    """What one timed part did, for the result line and the digest."""

    attempted: int
    #: Failed operation -> the first output check it failed.
    failures: Dict[str, str] = field(default_factory=dict)
    #: Simulated outputs (counts, simulated seconds) that go into the digest.
    outputs: List[Any] = field(default_factory=list)
    #: ``"experiment.metric"`` -> reproduced value, for ``paper_err_pct``.
    headlines: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Path], Any]
    #: ``run(inputs, scope)``; ``scope(name)`` opens a span in traced runs.
    run: Callable[[Any, Callable[[str], ContextManager]], Outcome]
    #: Memos the set-up fills on purpose: they hold the inputs.
    input_memos: FrozenSet[str] = frozenset()


# -- autotm-cnn --------------------------------------------------------------


def _autotm_setup(seed: int, workdir: Path):
    # The paper's three fixed networks: the seed is recorded, and
    # changes nothing.
    from repro.experiments.platform import cnn_platform_for, training_setup

    cnn_platform_for(True)
    for network in NETWORKS:
        training_setup(network, True)
    return NETWORKS


def _nvram(traffic) -> int:
    return traffic.nvram_reads + traffic.nvram_writes


def _autotm_run(networks, scope) -> Outcome:
    from repro.experiments.autotm_common import run_2lm, run_autotm
    from repro.experiments.headline import headline_metrics

    outcome = Outcome(attempted=2 * len(networks))
    table: Dict[str, Dict[str, float]] = {}
    for network in networks:
        cached = run_2lm(network, True)
        autotm = run_autotm(network, True)
        speedup = cached.seconds / autotm.seconds
        table[network] = {"speedup": speedup}
        if not _nvram(autotm.traffic) < _nvram(cached.traffic):
            outcome.failures[f"{network}/autotm"] = (
                f"AutoTM moves {_nvram(autotm.traffic)} NVRAM lines, "
                f"2LM {_nvram(cached.traffic)}"
            )
        elif not speedup > 1.0:
            outcome.failures[f"{network}/autotm"] = f"speedup {speedup!r} <= 1"
        outcome.outputs.append(
            [network, "2lm", cached.traffic.as_dict(), cached.tags.as_dict(), cached.seconds]
        )
        outcome.outputs.append([network, "autotm", autotm.traffic.as_dict(), autotm.seconds])
    for metric, value in headline_metrics("table2", table).items():
        outcome.headlines[f"table2.{metric}"] = value
    return outcome


# -- kv-replay ---------------------------------------------------------------


def _kv_setup(seed: int, workdir: Path):
    from repro.experiments.kvtrace import TRACE_SPECS
    from repro.traces import generate
    from repro.traces.replay import platform_for

    inputs = {}
    for name, spec in TRACE_SPECS.items():
        trace = generate(spec["family"], seed=seed, **spec["full"])
        inputs[name] = (trace, platform_for(trace))
    return inputs


def _expanded_lines(trace):
    """Demand (read, write) lines replay must issue: gets and puts
    fetch, puts and appends write back."""
    from repro.traces import OP_APPEND, OP_GET

    return (
        int(trace.sizes[trace.ops != OP_APPEND].sum()),
        int(trace.sizes[trace.ops != OP_GET].sum()),
    )


def _kv_run(inputs, scope) -> Outcome:
    from repro.memsys import validate_traffic, validate_wall_clock
    from repro.traces import ALL_MODELS, replay_trace
    from repro.traces import replay as replay_module

    outcome = Outcome(attempted=len(inputs) * len(ALL_MODELS))
    make_backend = replay_module.make_backend
    captured: List[Any] = []

    def capturing_make_backend(*args, **kwargs):
        # Keep the backend and every access report, so the checks
        # below see exactly what the replay did.
        backend = make_backend(*args, **kwargs)
        access = backend.access
        reports: List[Any] = []

        def recording_access(*a, **k):
            report = access(*a, **k)
            reports.append(report)
            return report

        backend.access = recording_access
        captured.append((backend, reports))
        return backend

    replay_module.make_backend = capturing_make_backend
    try:
        for name, (trace, platform) in inputs.items():
            demand = _expanded_lines(trace)
            socket = platform.socket
            peak = socket.dram_bandwidth + socket.nvram_read_bandwidth + socket.nvram_write_bandwidth
            for model in ALL_MODELS:
                with scope(f"traces.{name}"):
                    result = replay_trace(trace, model, platform=platform)
                backend, reports = captured.pop()
                # The recording wrapper closes over the backend; drop it so
                # the backend is freed now rather than by a later GC pass.
                del backend.access
                op = f"{name}/{model}"
                outcome.outputs.append([name, result.to_row()])
                if (result.demand_reads, result.demand_writes) != demand:
                    outcome.failures[op] = (
                        f"demand lines {(result.demand_reads, result.demand_writes)} "
                        f"!= expanded trace lines {demand}"
                    )
                    continue
                error = validate_wall_clock(backend.counters.traffic, result.seconds, peak)
                if error is not None:
                    outcome.failures[op] = error
                    continue
                if model == "direct_mapped":
                    for report in reports:
                        check = validate_traffic(report.traffic, report.tags)
                        if not check.ok:
                            outcome.failures[op] = "; ".join(check.mismatches)
                            break
    finally:
        replay_module.make_backend = make_backend
    return outcome


# -- paper-quick -------------------------------------------------------------


def _paper_setup(seed: int, workdir: Path):
    store = workdir / "store"
    store.mkdir(parents=True)
    return store


#: Claims ``check`` evaluates at this commit.
CLAIM_COUNT = 15


def _paper_run(store_dir: Path, scope) -> Outcome:
    from repro.experiments import cli
    from repro.experiments.headline import headline_metrics
    from repro.experiments.registry import registered_names
    from repro.service.store import RequestSpec, ResultStore

    names = registered_names()
    outcome = Outcome(attempted=len(names))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["all", "--quick", "--jobs", "1", "--store", str(store_dir)])
    if code != 0:
        outcome.failures["all"] = f"exit code {code}"
    store = ResultStore(store_dir)
    for name in names:
        stored = store.get(RequestSpec.build(name, quick=True).key)
        if stored is None:
            outcome.failures[name] = "no result in the store"
            continue
        data = stored.result.data
        headlines = headline_metrics(name, data)
        outcome.outputs.append([name, headlines])
        for metric, value in headlines.items():
            outcome.headlines[f"{name}.{metric}"] = value
        if name == "table1" and data.get("matches_paper") is not True:
            outcome.failures[name] = "Table I counts differ from the paper"
        if name == "check" and not data.get("passed") == data.get("total") == CLAIM_COUNT:
            outcome.failures[name] = (
                f"{data.get('passed')}/{data.get('total')} claims hold, "
                f"expected {CLAIM_COUNT}/{CLAIM_COUNT}"
            )
    return outcome


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "autotm-cnn",
            _autotm_setup,
            _autotm_run,
            input_memos=frozenset(
                {
                    "repro.experiments.platform.training_setup",
                    "repro.experiments.platform.cnn_platform",
                }
            ),
        ),
        Workload("kv-replay", _kv_setup, _kv_run),
        Workload("paper-quick", _paper_setup, _paper_run),
    )
}

"""Figure 6: per-kernel bandwidth inside DenseNet dense blocks.

A high-resolution window over the forward pass showing which kernels
bottleneck: Concat and the first (wide) BatchNorm of each dense block
are memory-bound with little reuse, while convolutions are compute
bound (Section V-C).

The workload is one warm-up plus one measured iteration over a single
backend — a sequential dependency — so the sweep grid is a single
point.  Going through the engine anyway keeps the experiment uniform
with the other figures: ``repro-experiment all --jobs N`` can place
the whole iteration in a worker process, and its telemetry merges
back like any other sweep point's.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

from repro.exec import SweepSpec, run_sweep
from repro.experiments.autotm_common import run_2lm
from repro.experiments.base import ExperimentResult
from repro.experiments.platform import cnn_platform_for, training_setup
from repro.nn.ir import OpKind
from repro.perf.report import render_table
from repro.units import to_gb_per_s

_FORWARD_KINDS = (
    OpKind.CONCAT,
    OpKind.BATCH_NORM,
    OpKind.CONV,
    OpKind.RELU,
    OpKind.POOL,
)


def dense_block_snapshot(network: str, quick: bool) -> Dict[str, Dict[str, float]]:
    """The single grid point: per-kind forward-pass aggregates."""
    platform = cnn_platform_for(quick)
    scale = platform.scale_factor
    training, _ = training_setup(network, quick)
    # The same warm-up + measured 2LM iteration Table II runs: share it.
    execution = run_2lm(network, quick)

    # Aggregate forward-pass kernels by kind.
    per_kind: Dict[OpKind, Dict[str, float]] = defaultdict(
        lambda: {"seconds": 0.0, "bytes": 0.0, "count": 0.0, "compute": 0.0}
    )
    forward_records = execution.records[: training.backward_start]
    for record in forward_records:
        if record.op.kind not in _FORWARD_KINDS:
            continue
        agg = per_kind[record.op.kind]
        agg["seconds"] += record.seconds
        agg["bytes"] += record.traffic.total_bytes
        agg["count"] += 1
        agg["compute"] += record.compute_seconds

    data: Dict[str, Dict[str, float]] = {}
    for kind, agg in sorted(per_kind.items(), key=lambda kv: -kv[1]["seconds"]):
        bandwidth = (
            to_gb_per_s(agg["bytes"] / agg["seconds"] * scale) if agg["seconds"] else 0.0
        )
        data[kind.value] = {
            "seconds": agg["seconds"],
            "bandwidth_gbps": bandwidth,
            "memory_bound": agg["compute"] < agg["seconds"] / 2,
            "count": int(agg["count"]),
        }
    return data


def sweep_spec(quick: bool) -> SweepSpec:
    return SweepSpec.from_points(
        "fig6",
        dense_block_snapshot,
        [dict(network="densenet264")],
        common=dict(quick=quick),
    )


def run(quick: bool = False, jobs: int = 1) -> ExperimentResult:
    (data,) = run_sweep(sweep_spec(quick), jobs=jobs)

    rows: List[List[str]] = []
    for kind, agg in data.items():
        rows.append(
            [
                kind,
                f"{agg['count']:.0f}",
                f"{agg['seconds']:.1f}",
                f"{agg['bandwidth_gbps']:.1f}",
                "memory" if agg["memory_bound"] else "compute",
            ]
        )

    result = ExperimentResult(
        name="fig6", title="Dense-block kernel bandwidth snapshot (forward pass)"
    )
    result.add(
        render_table(
            ["kernel", "count", "total s", "GB/s (hw-equiv)", "bound by"],
            rows,
            title="Figure 6 — per-kernel memory behaviour in dense blocks",
        )
    )
    result.data = data
    return result

"""Training-iteration executor: streams kernel tensor traffic line by line.

One training iteration runs the planned schedule op by op.  Each kernel:

* reads every input tensor (LLC reads),
* issues Read-For-Ownership reads for its outputs (ngraph kernels use
  standard, write-allocating stores),
* writes every output tensor back (LLC writes, DDO-eligible because the
  RFO just checked the tag),
* overlaps a roofline compute time derived from the op's flop count.

Tensor addresses come from the memory plan, so the DRAM-cache behaviour
(aliasing, dirty temporaries, fold-back hit bursts — Section V-B) falls
out of the real address stream rather than being assumed.

**Stride sampling.**  Simulating every line of a hundreds-of-MB heap is
wasteful; ``sample_stride=N`` simulates every N-th line and weights the
recorded traffic by N.  For a direct-mapped cache this is exact in
distribution: addresses in different residue classes mod N map to
disjoint set classes with identical conflict structure, so the sampled
class is an unbiased 1/N census of the full stream (tensor offsets are
aligned to ``N * line_size`` by the planner).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from repro import obs
from repro.config import CPUConfig
from repro.errors import ConfigurationError
from repro.memsys.backends import MemoryBackend
from repro.perf.counters import (
    AccessContext,
    AccessKind,
    Pattern,
    TagStats,
    Traffic,
)
from repro.nn.ir import COMPUTE_BOUND_KINDS, Graph, Op, OpKind, Tensor
from repro.nn.planner import MemoryPlan
from repro.perf.trace import Trace, TracePoint

#: Fraction of peak flops achieved by tuned compute-bound kernels.
COMPUTE_EFFICIENCY = 0.6
#: Fraction of peak flops achieved by memory-bound elementwise kernels.
ELEMENTWISE_EFFICIENCY = 0.3
#: Worker threads every training kernel (and AutoTM copy) runs on.
KERNEL_THREADS = 24


@dataclass
class KernelRecord:
    """Measured execution of one op."""

    op: Op
    start: float
    end: float
    traffic: Traffic
    tags: TagStats
    compute_seconds: float
    memory_seconds: float
    instructions: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class ExecutionResult:
    """Outcome of one executed training iteration."""

    graph: Graph
    records: List[KernelRecord] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(r.seconds for r in self.records)

    @property
    def traffic(self) -> Traffic:
        total = Traffic()
        for record in self.records:
            total += record.traffic
        return total

    @property
    def tags(self) -> TagStats:
        total = TagStats()
        for record in self.records:
            total += record.tags
        return total

    @property
    def trace(self) -> Trace:
        """One counter-delta point per record, labelled with its op."""
        return Trace(
            [
                TracePoint(
                    start=r.start,
                    end=r.end,
                    traffic=r.traffic,
                    tags=r.tags,
                    instructions=r.instructions,
                    label=r.op.name,
                )
                for r in self.records
            ]
        )


class TensorAddresser:
    """Maps planned tensors to (sampled) line-address arrays."""

    def __init__(self, plan: MemoryPlan, sample_stride: int, line_size: int) -> None:
        if sample_stride < 1:
            raise ConfigurationError("sample_stride must be >= 1")
        if plan.alignment % (sample_stride * line_size):
            raise ConfigurationError(
                f"plan alignment {plan.alignment} must be a multiple of "
                f"sample_stride * line_size = {sample_stride * line_size}"
            )
        self.plan = plan
        self.sample_stride = sample_stride
        self.line_size = line_size
        self._cache: Dict[Tensor, np.ndarray] = {}

    def lines(self, tensor: Tensor) -> np.ndarray:
        """Sampled line addresses covering ``tensor``."""
        cached = self._cache.get(tensor)
        if cached is not None:
            return cached
        first = self.plan.offset_of(tensor) // self.line_size
        num_lines = -(-tensor.size_bytes // self.line_size)
        lines = first + np.arange(0, num_lines, self.sample_stride, dtype=np.int64)
        self._cache[tensor] = lines
        return lines


def compute_time(op: Op, peak_flops: float) -> float:
    """Roofline compute time for one kernel."""
    if not op.flops:
        return 0.0
    efficiency = (
        COMPUTE_EFFICIENCY if op.kind in COMPUTE_BOUND_KINDS else ELEMENTWISE_EFFICIENCY
    )
    return op.flops / (peak_flops * efficiency)


def execute_iteration(
    plan: MemoryPlan,
    backend: MemoryBackend,
    *,
    sample_stride: int = 16,
) -> ExecutionResult:
    """Run one training iteration of the planned graph."""
    platform = backend.timing.platform
    cpu = platform.socket.cpu
    addresser = TensorAddresser(plan, sample_stride, platform.line_size)

    tele = obs.get()
    result = ExecutionResult(graph=plan.graph)
    for op in plan.graph.ops:
        # Streams at the memory controller: one per tensor read,
        # two per output (RFO + write-back).
        streams = max(1, len(op.inputs) + 2 * len(op.outputs))
        ctx = AccessContext(
            threads=KERNEL_THREADS, pattern=Pattern.SEQUENTIAL, streams=streams
        )
        with contextlib.ExitStack() as stack:
            if tele.enabled:
                stack.enter_context(
                    tele.span(
                        "nn.kernel",
                        cat="nn",
                        clock=lambda: backend.counters.time,
                        op=op.name,
                        kind=op.kind.value,
                    )
                )
            record = execute_op(op, addresser.lines, backend, ctx, cpu, sample_stride)
        result.records.append(record)
    return result


def execute_op(
    op: Op,
    lines_of: Callable[[Tensor], np.ndarray],
    backend: MemoryBackend,
    ctx: AccessContext,
    cpu: CPUConfig,
    weight: int,
) -> KernelRecord:
    """Run one kernel in its own epoch; ``lines_of`` addresses its tensors."""
    start = backend.counters.time
    with backend.epoch(ctx) as epoch:
        if op.kind is not OpKind.PARAMETER:
            for tensor in op.inputs:
                backend.stream(lines_of(tensor), AccessKind.LLC_READ, ctx, weight=weight)
            if op.kind is OpKind.SGD_UPDATE:
                # In-place weight update: the read above doubles as the
                # ownership read; write the weight back.
                backend.stream(
                    lines_of(op.inputs[0]), AccessKind.LLC_WRITE, ctx, weight=weight
                )
            for tensor in op.outputs:
                # Standard stores write-allocate: RFO first, write-back after.
                lines = lines_of(tensor)
                backend.stream(lines, AccessKind.LLC_READ, ctx, weight=weight)
                backend.stream(lines, AccessKind.LLC_WRITE, ctx, weight=weight)
        epoch.add_compute(compute_time(op, cpu.peak_flops))
    instructions = int(op.flops * cpu.instructions_per_flop) + int(
        epoch.traffic.demand_bytes * cpu.instructions_per_byte
    )
    backend.counters.retire(instructions)
    return KernelRecord(
        op=op,
        start=start,
        end=backend.counters.time,
        traffic=epoch.traffic,
        tags=epoch.tags,
        compute_seconds=epoch.compute_seconds,
        memory_seconds=epoch.memory_seconds,
        instructions=instructions,
    )

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
wasteful; ``sample_stride=N`` simulates a 1/N share of the lines and
weights the recorded traffic by N.  The one sampling rule works on
*granules* of ``granule`` consecutive lines, chosen to be the cache's
mapping unit: a line is simulated when its global granule index
``line // granule`` is ≡ 0 (mod N).  Granule 1 is plain line sampling
(every N-th line); a sector cache samples by its sector (granule =
``sector_lines``).  As long as the cache's set count (in granules) is a
multiple of N, the sampled granules map to exactly the sets ≡ 0 (mod N)
and every other granule maps elsewhere, so each sampled set sees
exactly its unsampled stream and the sampled sets are an unbiased 1/N
census of the whole cache.  Only the ×N extrapolation is approximate:
the planner aligns tensor offsets to N lines, so at granule 1 each
tensor contributes exactly every N-th line, while with a coarser
granule a tensor's share depends on where its extent falls.  Designs
that act across granules (next-line prefetch fills line+1) would leak
out of the sample, so they run at stride 1.

**One batch per access run.**  Each kernel issues its requests in a
fixed order (inputs, ownership reads, write-backs); every maximal run
of same-kind requests goes to the backend as one
:meth:`~repro.memsys.backends.MemoryBackend.stream` call.  Lines keep
their issue order and the op stays one epoch, so any cache model whose
batch engine is exactly sequential (batch-split invariant) sees the
same stream as with one call per tensor, at a fraction of the calls.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np

from repro import obs
from repro.config import CPUConfig
from repro.errors import ConfigurationError
from repro.memsys.backends import CachedBackend, MemoryBackend
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
    """Outcome of one executed training iteration.

    Executors append records through :meth:`add`, which keeps running
    totals, so ``traffic``, ``tags`` and ``seconds`` never re-sum.
    """

    graph: Graph
    records: List[KernelRecord] = field(default_factory=list, init=False)
    _traffic: Traffic = field(default_factory=Traffic, init=False, repr=False, compare=False)
    _tags: TagStats = field(default_factory=TagStats, init=False, repr=False, compare=False)
    _seconds: float = field(default=0.0, init=False, repr=False, compare=False)

    def add(self, record: KernelRecord) -> None:
        """Append ``record`` and fold it into the running totals."""
        self.records.append(record)
        self._traffic += record.traffic
        self._tags += record.tags
        self._seconds += record.seconds

    @property
    def seconds(self) -> float:
        return self._seconds

    @property
    def traffic(self) -> Traffic:
        return self._traffic.copy()

    @property
    def tags(self) -> TagStats:
        return self._tags.copy()

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
    """Maps planned tensors to (sampled) line-address arrays.

    A line is kept when its global granule index ``line // granule`` is
    ≡ 0 (mod ``sample_stride``); see the module docstring.
    """

    def __init__(
        self, plan: MemoryPlan, sample_stride: int, line_size: int, granule: int = 1
    ) -> None:
        if sample_stride < 1:
            raise ConfigurationError("sample_stride must be >= 1")
        if granule < 1:
            raise ConfigurationError("granule must be >= 1")
        if plan.alignment % (sample_stride * line_size):
            raise ConfigurationError(
                f"plan alignment {plan.alignment} must be a multiple of "
                f"sample_stride * line_size = {sample_stride * line_size}"
            )
        self.plan = plan
        self.sample_stride = sample_stride
        self.line_size = line_size
        self.granule = granule
        self._cache: Dict[Tensor, np.ndarray] = {}

    def lines(self, tensor: Tensor) -> np.ndarray:
        """Sampled line addresses covering ``tensor``."""
        cached = self._cache.get(tensor)
        if cached is not None:
            return cached
        first = self.plan.offset_of(tensor) // self.line_size
        end = first + -(-tensor.size_bytes // self.line_size)
        # Kept granules start at multiples of the sampling period; take
        # each one's lines and clip the first and last to the tensor.
        period = self.granule * self.sample_stride
        starts = np.arange(first // period, -(-end // period), dtype=np.int64) * period
        lines = (starts[:, None] + np.arange(self.granule, dtype=np.int64)).ravel()
        lines = lines[(lines >= first) & (lines < end)]
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
    granule: int = 1,
) -> ExecutionResult:
    """Run one training iteration of the planned graph."""
    platform = backend.timing.platform
    cpu = platform.socket.cpu
    if isinstance(backend, CachedBackend) and backend.cache.num_sets % sample_stride:
        raise ConfigurationError(
            f"cache set count {backend.cache.num_sets} must be a multiple of "
            f"sample_stride {sample_stride} for sampling to be exact per set"
        )
    addresser = TensorAddresser(plan, sample_stride, platform.line_size, granule)

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
        result.add(record)
    return result


def access_runs(
    op: Op, lines_of: Callable[[Tensor], np.ndarray]
) -> Iterator[Tuple[AccessKind, np.ndarray]]:
    """The kernel's LLC requests in issue order, one entry per same-kind run.

    Issue order: every input is read; an in-place SGD update writes its
    weight back; each output takes a Read-For-Ownership, then its
    write-back (standard stores write-allocate).  Consecutive requests
    of one kind are concatenated, so a kernel with inputs and outputs
    yields ``read, write, read, write, ...``.
    """
    if op.kind is OpKind.PARAMETER:
        return
    requests = [(AccessKind.LLC_READ, lines_of(tensor)) for tensor in op.inputs]
    if op.kind is OpKind.SGD_UPDATE:
        # The read above doubles as the ownership read.
        requests.append((AccessKind.LLC_WRITE, lines_of(op.inputs[0])))
    for tensor in op.outputs:
        lines = lines_of(tensor)
        requests.append((AccessKind.LLC_READ, lines))
        requests.append((AccessKind.LLC_WRITE, lines))
    for kind, run in itertools.groupby(requests, key=lambda request: request[0]):
        arrays = [lines for _, lines in run]
        yield kind, arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


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
        for kind, lines in access_runs(op, lines_of):
            backend.stream(lines, kind, ctx, weight=weight)
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

"""Tests for the AutoTM 1LM executor."""

import dataclasses

import pytest

from repro.autotm import (
    PlacementMode,
    PlacementProblem,
    execute_autotm,
    solve_ilp,
)
from repro.autotm import executor as autotm_executor
from repro.autotm.dma import execute_autotm_async
from repro.config import default_platform
from repro.errors import ConfigurationError
from repro.memsys import FlatBackend
from repro.nn import build_training_graph
from repro.nn.ir import OpKind
from repro.nn.ops import GraphBuilder
from repro.perf.counters import UncoreCounters
from tests.nn.test_executor import assert_trace_matches_counters


@pytest.fixture(scope="module")
def platform():
    return default_platform(4096)


@pytest.fixture(scope="module")
def setup(platform):
    b = GraphBuilder("t", batch=1, weight_scale=1024)
    x = b.input(3, 32, 32)
    for _ in range(4):
        x = b.conv_bn_relu(x, 8, kernel=3)
    y = b.matmul(x, 10)
    b.softmax_loss(y)
    training = build_training_graph(b.graph)
    budget = int(platform.socket.dram_capacity * 0.002)
    problem = PlacementProblem.build(
        training, platform, budget, capacity_stride=1, min_stash_gap=2
    )
    plan = solve_ilp(problem)
    result = execute_autotm(training, plan, platform, sample_stride=16)
    return training, plan, result


class TestExecution:
    def test_records_cover_ops_and_moves(self, setup):
        training, plan, result = setup
        stashes = plan.count(PlacementMode.STASH)
        move_records = [r for r in result.records if r.op.kind is OpKind.MOVE]
        assert len(move_records) == 2 * stashes  # stash out + restore
        op_records = [r for r in result.records if r.op.kind is not OpKind.MOVE]
        assert len(op_records) == len(training.graph.ops)

    def test_no_tag_events_in_1lm(self, setup):
        _, _, result = setup
        assert result.tags.checks == 0 if hasattr(result, "tags") else True
        for record in result.records:
            assert record.tags.checks == 0

    def test_stash_and_restore_balanced(self, setup):
        _, _, result = setup
        assert result.stash_bytes == result.restore_bytes
        assert result.stash_bytes > 0

    def test_nvram_writes_precede_reads(self, setup):
        """Figure 10's property: stash writes in the forward pass, restore
        reads in the backward pass."""
        _, _, result = setup
        first_nvram_read = next(
            (i for i, r in enumerate(result.records) if r.traffic.nvram_reads), None
        )
        last_nvram_write = max(
            (i for i, r in enumerate(result.records) if r.traffic.nvram_writes),
            default=None,
        )
        assert first_nvram_read is not None and last_nvram_write is not None
        stash_indices = [
            i
            for i, r in enumerate(result.records)
            if r.op.kind is OpKind.MOVE and r.op.name.startswith("stash")
        ]
        restore_indices = [
            i
            for i, r in enumerate(result.records)
            if r.op.kind is OpKind.MOVE and r.op.name.startswith("restore")
        ]
        assert max(stash_indices) < min(restore_indices)

    def test_trace_attached(self, setup):
        _, _, result = setup
        assert result.trace is not None
        assert len(result.trace) == len(result.records)

    def test_virtual_time_positive(self, setup):
        _, _, result = setup
        assert result.seconds > 0


class TestTrafficAccounting:
    def test_nvram_move_traffic_matches_stashed_bytes(self, setup):
        _, _, result = setup
        move_nvram_writes = sum(
            r.traffic.nvram_writes
            for r in result.records
            if r.op.kind is OpKind.MOVE
        )
        # Weighted line counts approximate the stashed bytes.
        assert move_nvram_writes * 64 == pytest.approx(result.stash_bytes, rel=0.05)

    def test_demand_equals_device_traffic(self, setup):
        """1LM: no cache, so every device access is a demand access."""
        _, _, result = setup
        t = result.traffic
        assert t.total_accesses == t.demand_accesses


class TestRecordTrace:
    def test_trace_is_the_counter_delta(self, platform, setup, monkeypatch):
        """Kernels and moves together account for every counter change."""
        training, plan, _ = setup
        backends = []

        def capture(*args, **kwargs):
            backends.append(FlatBackend(*args, **kwargs))
            return backends[-1]

        monkeypatch.setattr(autotm_executor, "FlatBackend", capture)
        result = execute_autotm(training, plan, platform, sample_stride=16)
        (backend,) = backends
        assert_trace_matches_counters(
            result.trace, UncoreCounters().snapshot(), backend.counters.snapshot()
        )
        assert [p.label for p in result.trace] == [r.op.name for r in result.records]


@pytest.mark.parametrize("execute", [execute_autotm, execute_autotm_async])
def test_nvram_pool_overflow_rejected(platform, setup, execute):
    """Both executors check the NVRAM pool before running anything."""
    training, plan, _ = setup
    assert plan.count(PlacementMode.STASH) > 0
    socket = platform.socket
    tiny = dataclasses.replace(
        platform,
        socket=dataclasses.replace(
            socket, nvram=dataclasses.replace(socket.nvram, capacity=platform.line_size)
        ),
    )
    with pytest.raises(ConfigurationError, match="NVRAM pool overflows"):
        execute(training, plan, tiny, sample_stride=16)

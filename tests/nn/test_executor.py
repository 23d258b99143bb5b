"""Tests for the training-iteration executor."""

import numpy as np
import pytest

from repro.cache import DirectMappedCache, SectorCache
from repro.config import default_platform
from repro.errors import ConfigurationError
from repro.memsys import CachedBackend
from repro.nn import build_training_graph, execute_iteration, plan_memory
from repro.nn.executor import TensorAddresser, compute_time
from repro.nn.ir import OpKind
from repro.nn.ops import GraphBuilder
from repro.perf.counters import TagStats, Traffic
from repro.units import TB


@pytest.fixture(scope="module")
def platform():
    return default_platform(4096)


def small_training_setup():
    b = GraphBuilder("small", batch=1, weight_scale=1024)
    x = b.input(3, 32, 32)
    y = b.conv_bn_relu(x, 8, kernel=3)
    y = b.matmul(y, 10)
    b.softmax_loss(y)
    training = build_training_graph(b.graph)
    plan = plan_memory(b.graph, alignment=1024)
    return training, plan


def run_once(platform, sample_stride=16):
    training, plan = small_training_setup()
    cache = DirectMappedCache(platform.socket.dram_capacity)
    backend = CachedBackend(platform, cache)
    return execute_iteration(plan, backend, sample_stride=sample_stride), training, plan


class TestExecution:
    def test_one_record_per_op(self, platform):
        result, training, plan = run_once(platform)
        assert len(result.records) == len(plan.graph.ops)

    def test_time_advances_monotonically(self, platform):
        result, _, _ = run_once(platform)
        for earlier, later in zip(result.records, result.records[1:]):
            assert later.start >= earlier.start
            assert later.end >= later.start

    def test_parameter_ops_produce_no_traffic(self, platform):
        result, _, _ = run_once(platform)
        for record in result.records:
            if record.op.kind is OpKind.PARAMETER:
                assert record.traffic.total_accesses == 0

    def test_demand_traffic_covers_tensors(self, platform):
        result, _, plan = run_once(platform, sample_stride=1)
        relu = [r for r in result.records if r.op.kind is OpKind.RELU][0]
        expected_lines = sum(
            -(-t.size_bytes // 64) for t in relu.op.inputs
        ) + 2 * sum(-(-t.size_bytes // 64) for t in relu.op.outputs)
        assert relu.traffic.demand_accesses == expected_lines

    def test_sgd_writes_weights(self, platform):
        result, _, _ = run_once(platform)
        sgd = [r for r in result.records if r.op.kind is OpKind.SGD_UPDATE][0]
        assert sgd.traffic.demand_writes > 0


class TestRecordTrace:
    def test_trace_is_the_counter_delta(self, platform):
        """The record-derived trace accounts for every counter change."""
        _, plan = small_training_setup()
        backend = CachedBackend(platform, DirectMappedCache(platform.socket.dram_capacity))
        execute_iteration(plan, backend)  # warm-up: the run starts mid-clock
        before = backend.counters.snapshot()
        result = execute_iteration(plan, backend)
        assert_trace_matches_counters(result.trace, before, backend.counters.snapshot())

    def test_labels_are_op_names(self, platform):
        result, _, plan = run_once(platform)
        assert [p.label for p in result.trace] == [op.name for op in plan.graph.ops]


def assert_trace_matches_counters(trace, before, after):
    """Contiguous points spanning [before, after] whose sums equal the
    counter delta exactly: no activity escapes a record."""
    points = trace.points
    delta = after.delta(before)
    assert points[0].start == before.time
    for earlier, later in zip(points, points[1:]):
        assert earlier.end == later.start
    assert points[-1].end == after.time
    assert points[-1].end - points[0].start == delta.time
    assert sum((p.traffic for p in points), Traffic()) == delta.traffic
    assert sum((p.tags for p in points), TagStats()) == delta.tags
    assert sum(p.instructions for p in points) == delta.instructions


class TestStrideSampling:
    def test_weighted_traffic_close_to_exact(self, platform):
        exact, _, _ = run_once(platform, sample_stride=1)
        sampled, _, _ = run_once(platform, sample_stride=16)
        t_exact, t_sampled = exact.traffic, sampled.traffic
        # Totals agree within a few percent (rounding on tensor tails).
        assert t_sampled.demand_accesses == pytest.approx(
            t_exact.demand_accesses, rel=0.05
        )
        assert t_sampled.total_accesses == pytest.approx(
            t_exact.total_accesses, rel=0.10
        )

    def test_rejects_misaligned_stride(self, platform):
        training, plan = small_training_setup()  # alignment 1024 = 16 lines
        cache = DirectMappedCache(platform.socket.dram_capacity)
        backend = CachedBackend(platform, cache)
        with pytest.raises(ConfigurationError):
            execute_iteration(plan, backend, sample_stride=32)


class TestGranuleSampling:
    """One sampling rule: keep granules whose index is ≡ 0 (mod stride)."""

    def test_granule_one_is_line_sampling(self, platform):
        _, plan = small_training_setup()
        for stride in (1, 16):
            addresser = TensorAddresser(plan, stride, 64, granule=1)
            for tensor in plan.graph.tensors:
                first = plan.offset_of(tensor) // 64
                expected = first + np.arange(
                    0, -(-tensor.size_bytes // 64), stride, dtype=np.int64
                )
                assert np.array_equal(addresser.lines(tensor), expected)

    def test_granule_keeps_whole_granules_by_global_index(self, platform):
        _, plan = small_training_setup()
        addresser = TensorAddresser(plan, 4, 64, granule=8)
        for tensor in plan.graph.activations:
            first = plan.offset_of(tensor) // 64
            every = np.arange(first, first + -(-tensor.size_bytes // 64))
            kept = every[(every // 8) % 4 == 0]
            assert np.array_equal(addresser.lines(tensor), kept)

    def test_sector_cache_sampled_close_to_exact(self, platform):
        """Small network, 32-set sector cache well under its heap: the
        sector-sampled run tracks the unsampled one."""
        _, plan = small_training_setup()

        def measure(stride, granule):
            cache = SectorCache(32 * 32 * 64, sector_lines=32, footprint=4)
            backend = CachedBackend(platform, cache)
            execute_iteration(plan, backend, sample_stride=stride, granule=granule)
            return execute_iteration(
                plan, backend, sample_stride=stride, granule=granule
            )

        exact, sampled = measure(1, 1), measure(16, 32)
        t_exact, t_sampled = exact.traffic, sampled.traffic
        assert t_sampled.amplification == pytest.approx(t_exact.amplification, rel=0.05)
        assert sampled.tags.hit_rate == pytest.approx(exact.tags.hit_rate, abs=0.02)
        assert t_sampled.nvram_reads + t_sampled.nvram_writes == pytest.approx(
            t_exact.nvram_reads + t_exact.nvram_writes, rel=0.05
        )

    def test_rejects_granule_below_one(self, platform):
        _, plan = small_training_setup()
        with pytest.raises(ConfigurationError):
            TensorAddresser(plan, 16, 64, granule=0)
        backend = CachedBackend(platform, DirectMappedCache(platform.socket.dram_capacity))
        with pytest.raises(ConfigurationError):
            execute_iteration(plan, backend, sample_stride=16, granule=0)

    def test_rejects_set_count_not_multiple_of_stride(self, platform):
        _, plan = small_training_setup()
        cache = SectorCache(24 * 32 * 64, sector_lines=32, footprint=4)  # 24 sets
        backend = CachedBackend(platform, cache)
        with pytest.raises(ConfigurationError):
            execute_iteration(plan, backend, sample_stride=16, granule=32)


def assert_totals_match_records(result):
    """Running totals equal the records re-summed in order."""
    assert result.traffic == sum((r.traffic for r in result.records), Traffic())
    assert result.tags == sum((r.tags for r in result.records), TagStats())
    assert result.seconds == sum(r.seconds for r in result.records)


class TestRunningTotals:
    def test_totals_equal_resummed_records(self, platform):
        result, _, _ = run_once(platform)
        assert_totals_match_records(result)

    def test_totals_are_copies(self, platform):
        result, _, _ = run_once(platform)
        traffic = result.traffic
        traffic += result.traffic
        assert result.traffic != traffic


class TestComputeTime:
    def test_zero_flops_zero_time(self):
        b = GraphBuilder("t", batch=1)
        x = b.input(1, 8, 8)
        y = b.concat([x])
        assert compute_time(y.producer, TB) == 0.0

    def test_compute_bound_kinds_more_efficient(self):
        b = GraphBuilder("t", batch=1, weight_scale=1)
        x = b.input(3, 16, 16)
        conv_out = b.conv(x, 4, kernel=3)
        bn_out = b.batch_norm(conv_out)
        conv, bn = conv_out.producer, bn_out.producer
        # Same flops would take longer on a memory-bound kernel.
        assert compute_time(conv, TB) / conv.flops < compute_time(bn, TB) / bn.flops


class TestTensorAddresser:
    def test_lines_cover_tensor(self, platform):
        _, plan = small_training_setup()
        addresser = TensorAddresser(plan, sample_stride=1, line_size=64)
        tensor = plan.graph.activations[0]
        lines = addresser.lines(tensor)
        assert lines.size == -(-tensor.size_bytes // 64)
        assert (np.diff(lines) == 1).all()

    def test_disjoint_concurrent_tensors_have_disjoint_lines(self, platform):
        _, plan = small_training_setup()
        addresser = TensorAddresser(plan, sample_stride=1, line_size=64)
        lives = plan.lives
        for i, a in enumerate(lives):
            for other in lives[i + 1 :]:
                if a.overlaps(other):
                    la = set(addresser.lines(a.tensor).tolist())
                    lb = set(addresser.lines(other.tensor).tolist())
                    assert not (la & lb)

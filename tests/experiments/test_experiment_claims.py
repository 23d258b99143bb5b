"""Integration tests: each experiment must reproduce the paper's claims.

These run the experiments in quick mode, once each per module.  The
paper's headline claims are the rows of
:data:`repro.experiments.headline.CLAIMS`; ``test_claim_holds`` checks
every row over its experiment's headline metrics, and the classes
below assert the secondary *shape* results no row covers — who wins,
by roughly what factor, where the crossovers fall.  EXPERIMENTS.md
records the full-size numbers.
"""

import json
from collections import Counter

import numpy as np
import pytest

from repro.experiments import run_experiment
from repro.experiments.headline import CLAIMS, headline_metrics
from repro.perf.export import to_jsonable
from repro.units import MiB

CLAIMED = sorted({claim.experiment for claim in CLAIMS})


def _claim_ids():
    """``<experiment>-<n>``: the n-th row (from 1) of that experiment."""
    seen = Counter()
    ids = []
    for claim in CLAIMS:
        seen[claim.experiment] += 1
        ids.append(f"{claim.experiment}-{seen[claim.experiment]}")
    return ids


def _quick(name):
    return pytest.fixture(scope="module", name=name)(
        lambda: run_experiment(name, quick=True)
    )


fig2 = _quick("fig2")
table1 = _quick("table1")
fig4 = _quick("fig4")
fig5 = _quick("fig5")
fig6 = _quick("fig6")
fig7 = _quick("fig7")
fig8 = _quick("fig8")
fig9 = _quick("fig9")
fig10 = _quick("fig10")
table2 = _quick("table2")
ablation = _quick("ablation")


@pytest.mark.parametrize("claim", CLAIMS, ids=_claim_ids())
def test_claim_holds(claim, request):
    data = request.getfixturevalue(claim.experiment).data
    assert claim.holds(headline_metrics(claim.experiment, data))


@pytest.mark.parametrize("name", CLAIMED)
def test_headline_metrics_survive_json(name, request):
    # check and the results catalog both read stored results, whose
    # JSON round-trip must not change any headline metric.
    data = request.getfixturevalue(name).data
    stored = json.loads(json.dumps(to_jsonable(data)))
    assert headline_metrics(name, data) == headline_metrics(name, stored)


class TestFig2Claims:
    def test_read_saturates_by_8_threads(self, fig2):
        bw = fig2.data["bandwidth"]["read"]
        assert bw[("sequential", 64, 8)] == pytest.approx(
            bw[("sequential", 64, 24)], rel=0.05
        )

    def test_write_peaks_at_4_threads(self, fig2):
        bw = fig2.data["bandwidth"]["write"]
        assert bw[("sequential", 64, 4)] > bw[("sequential", 64, 24)]

    def test_random_256b_write_matches_sequential(self, fig2):
        bw = fig2.data["bandwidth"]["write"]
        assert bw[("random", 256, 4)] == pytest.approx(
            bw[("sequential", 64, 4)], rel=0.05
        )


class TestTable1Claims:
    def test_up_to_five_accesses_per_demand(self, table1):
        amps = [row["amplification"] for row in table1.data["measured"].values()]
        assert max(amps) == 5.0
        assert min(amps) == 1.0


class TestFig4Claims:
    def test_clean_read_miss_never_hits(self, fig4):
        case = fig4.data["4a_read_clean_miss"]["sequential_64"]
        assert case["hit_rate"] < 0.01

    def test_write_miss_doubles_dram_writes(self, fig4):
        # Section IV-B: "2x access amplification in DRAM writes alone".
        case = fig4.data["4b_write_dirty_miss"]["sequential_64"]
        assert case["dram_write"] == pytest.approx(2 * case["nvram_write"], rel=0.05)

    def test_rmw_costs_two_and_a_half_accesses(self, fig4):
        case = fig4.data["4c_rmw_ddo"]["sequential_64"]
        assert case["amplification"] == pytest.approx(2.5, abs=0.1)

    def test_2lm_slower_than_1lm_raw(self, fig4, fig2):
        read_2lm = fig4.data["4a_read_clean_miss"]["sequential_64"]["effective"]
        read_raw = fig2.data["bandwidth"]["read"][("sequential", 64, 24)]
        assert read_2lm < read_raw


class TestFig5Claims:
    def test_live_memory_rises_then_falls(self, fig5):
        assert fig5.data["peak_live_bytes"] > fig5.data["cache_bytes"]

    def test_hit_bursts_exist(self, fig5):
        # Observation (3): regions of high tag hits with a corresponding
        # drop in dirty tag misses.
        hits = fig5.data["hits_rate_series"]
        assert np.percentile(hits, 90) > 3 * max(np.percentile(hits, 10), 1)

    def test_hits_anticorrelate_with_dirty_misses(self, fig5):
        hits = fig5.data["hits_rate_series"]
        dirty = fig5.data["dirty_rate_series"]
        clean = fig5.data["clean_rate_series"]
        total = hits + dirty + clean
        mask = total > 0
        hit_frac = hits[mask] / total[mask]
        dirty_frac = dirty[mask] / total[mask]
        assert np.corrcoef(hit_frac, dirty_frac)[0, 1] < -0.5

    def test_low_bandwidth_during_dirty_phases(self, fig5):
        """Regions of high dirty-miss rate show lower DRAM bandwidth."""
        dirty = fig5.data["dirty_rate_series"]
        dram = fig5.data["dram_read_series"]
        high_dirty = dirty > np.percentile(dirty, 80)
        low_dirty = dirty < np.percentile(dirty, 20)
        if high_dirty.any() and low_dirty.any():
            assert dram[high_dirty].mean() < dram[low_dirty].mean()


class TestFig6Claims:
    def test_concat_and_batchnorm_memory_bound(self, fig6):
        assert fig6.data["concat"]["memory_bound"]
        assert fig6.data["batch_norm"]["memory_bound"]
        assert not fig6.data["conv"]["memory_bound"]

    def test_concat_bandwidth_below_dram_peak(self, fig6):
        # Concat streams through the miss-heavy cache: well below the
        # ~112 GB/s DRAM peak.
        assert fig6.data["concat"]["bandwidth_gbps"] < 60


class TestFig7Claims:
    def test_kron_fits_wdc_exceeds(self, fig7):
        platform_cache = 2 * 1.5 * MiB  # quick graph platform, 2 sockets
        assert fig7.data["kron"]["binary_bytes"] < platform_cache
        assert fig7.data["wdc"]["binary_bytes"] > platform_cache

    def test_hit_rate_drops_on_wdc(self, fig7):
        for kernel in ("cc", "pr"):
            assert (
                fig7.data["wdc"]["kernels"][kernel]["hit_rate"]
                < fig7.data["kron"]["kernels"][kernel]["hit_rate"]
            )

    def test_dram_bandwidth_drops_on_wdc(self, fig7):
        # "there is a significant decrease in DRAM bandwidth"; the
        # claims table holds pr to the same bound.
        assert (
            fig7.data["wdc"]["kernels"]["cc"]["dram_gbps"]
            < 0.7 * fig7.data["kron"]["kernels"]["cc"]["dram_gbps"]
        )


class TestFig8Claims:
    def test_amplification_significant(self, fig8):
        worst = max(row["amplification"] for row in fig8.data.values())
        assert worst > 1.7


class TestFig9Claims:
    def test_kron_stable_dram_bandwidth(self, fig9):
        series = fig9.data["kron"]["series"]["dram_read"][1:]  # skip cold start
        if series.size > 1:
            assert series.std() < 0.2 * series.mean()

    def test_wdc_bandwidth_below_kron(self, fig9):
        assert fig9.data["wdc"]["dram_gbps"] < fig9.data["kron"]["dram_gbps"]

    def test_wdc_shows_both_miss_kinds(self, fig9):
        assert fig9.data["wdc"]["clean_misses"] > 0
        assert fig9.data["wdc"]["dirty_misses"] > 0


class TestFig10Claims:
    def test_stash_equals_restore(self, fig10):
        assert fig10.data["stash_bytes"] == fig10.data["restore_bytes"]


class TestTable2Claims:
    def test_autotm_faster_everywhere(self, table2):
        for network, row in table2.data.items():
            assert row["speedup"] > 1.1, network

    def test_speedup_ordering_matches_paper(self, table2):
        # Paper: Inception 1.8x < ResNet 2.2x < DenseNet 3.1x.
        assert (
            table2.data["densenet264"]["speedup"]
            > table2.data["inception_v4"]["speedup"]
        )

    def test_dram_traffic_similar(self, table2):
        # Paper: "AutoTM generates similar amounts of DRAM traffic".
        for network, row in table2.data.items():
            ratio = row["autotm_dram_gb"] / row["2lm_dram_gb"]
            assert 0.7 < ratio < 1.3, network


class TestAblationClaims:
    def test_associativity_reduces_nvram_traffic(self, ablation):
        base = ablation.data["baseline (direct-mapped, DDO, insert-on-miss)"]
        assoc = ablation.data["8-way LRU"]
        assert assoc["nvram_read_gb"] <= base["nvram_read_gb"]

    def test_ddo_saves_tag_checks(self, ablation):
        base = ablation.data["baseline (direct-mapped, DDO, insert-on-miss)"]
        no_ddo = ablation.data["no DDO"]
        assert base["ddo_writes"] > 0
        assert no_ddo["ddo_writes"] == 0
        assert no_ddo["seconds"] >= base["seconds"]


class TestRegistry:
    def test_all_experiments_registered(self):
        from repro.experiments import EXPERIMENTS

        expected = {
            "fig2", "table1", "fig4", "fig5", "fig6", "fig7", "fig8",
            "fig9", "fig10", "table2", "ablation", "dma", "mix", "dlrm", "check", "gpt",
            "kvtrace",
        }
        assert expected == set(EXPERIMENTS)

    def test_unknown_experiment_raises(self):
        from repro.experiments import get_experiment

        with pytest.raises(KeyError):
            get_experiment("fig99")

    def test_render_includes_title(self, fig2):
        assert "fig2" in fig2.render()

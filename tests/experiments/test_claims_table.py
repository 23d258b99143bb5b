"""Every bound in the claims table, pinned without running experiments.

Each row of :data:`repro.experiments.headline.CLAIMS` is evaluated over
synthetic headline metrics just inside its bounds (must hold) and just
outside (must not), so a loosened or tightened bound fails here.  A
missing metric is an ``ERROR:`` verdict from ``check``, never a crash.
"""

import pytest

from repro.experiments import check
from repro.experiments.headline import CLAIMS, PAPER_BASELINES

FIG4_CLEAN = {"read_clean_miss_amp": 3.0, "read_clean_miss_nvram_gbps": 23.0}
FIG10 = {
    "nvram_writes_forward": 101,
    "nvram_writes_backward": 0,
    "nvram_reads_backward": 101,
    "nvram_reads_forward": 0,
}
TABLE2 = {"inception_v4_speedup": 1.2, "resnet200_speedup": 1.3, "densenet264_speedup": 1.5}

#: (claim row, headline metrics, does the claim hold?)
BOUNDS = [
    (0, {"peak_read": 30.0}, True),
    (0, {"peak_read": 33.0}, True),
    (0, {"peak_read": 29.99}, False),
    (0, {"peak_read": 33.01}, False),
    (1, {"peak_write": 10.0}, True),
    (1, {"peak_write": 12.0}, True),
    (1, {"peak_write": 9.99}, False),
    (1, {"peak_write": 12.01}, False),
    (2, {"write_random_64b_4t": 3.49, "write_sequential_64b_4t": 10.0}, True),
    (2, {"write_random_64b_4t": 3.51, "write_sequential_64b_4t": 10.0}, False),
    (3, {"matches_paper": 1.0}, True),
    (3, {"matches_paper": 0.0}, False),
    (4, {**FIG4_CLEAN, "read_clean_miss_amp": 3.049}, True),
    (4, {**FIG4_CLEAN, "read_clean_miss_amp": 2.951}, True),
    (4, {**FIG4_CLEAN, "read_clean_miss_amp": 3.051}, False),
    (4, {**FIG4_CLEAN, "read_clean_miss_amp": 2.949}, False),
    (4, {**FIG4_CLEAN, "read_clean_miss_nvram_gbps": 20.0}, True),
    (4, {**FIG4_CLEAN, "read_clean_miss_nvram_gbps": 26.0}, True),
    (4, {**FIG4_CLEAN, "read_clean_miss_nvram_gbps": 19.99}, False),
    (4, {**FIG4_CLEAN, "read_clean_miss_nvram_gbps": 26.01}, False),
    (5, {"write_dirty_miss_amp": 5.049}, True),
    (5, {"write_dirty_miss_amp": 4.951}, True),
    (5, {"write_dirty_miss_amp": 5.051}, False),
    (5, {"write_dirty_miss_amp": 4.949}, False),
    (6, {"rmw_ddo_fraction": 0.951}, True),
    (6, {"rmw_ddo_fraction": 0.95}, False),
    (7, {"dirty_misses": 301, "clean_misses": 100}, True),
    (7, {"dirty_misses": 300, "clean_misses": 100}, False),
    (8, {"buffer_bytes": 101, "cache_bytes": 100}, True),
    (8, {"buffer_bytes": 100, "cache_bytes": 100}, False),
    (9, {"wdc_pr_dram_gbps": 6.99, "kron_pr_dram_gbps": 10.0}, True),
    (9, {"wdc_pr_dram_gbps": 7.01, "kron_pr_dram_gbps": 10.0}, False),
    (10, {"bfs_amplification": 1.11, "pr_amplification": 2.0}, True),
    (10, {"bfs_amplification": 1.1, "pr_amplification": 2.0}, False),
    (11, {"wdc_min_nvram_read_after_round0": 0.001}, True),
    (11, {"wdc_min_nvram_read_after_round0": 0.0}, False),
    (12, FIG10, True),
    (12, {**FIG10, "nvram_writes_forward": 100}, False),
    (12, {**FIG10, "nvram_reads_backward": 100}, False),
    (12, {**FIG10, "nvram_writes_backward": 2, "nvram_writes_forward": 201}, True),
    (12, {**FIG10, "nvram_writes_backward": 2, "nvram_writes_forward": 200}, False),
    (12, {**FIG10, "nvram_reads_forward": 2, "nvram_reads_backward": 201}, True),
    (12, {**FIG10, "nvram_reads_forward": 2, "nvram_reads_backward": 200}, False),
    (13, {**TABLE2, "inception_v4_speedup": 1.11}, True),
    (13, {**TABLE2, "inception_v4_speedup": 1.1}, False),
    (13, {**TABLE2, "resnet200_speedup": 1.1}, False),
    (13, {**TABLE2, "densenet264_speedup": 1.2}, False),
    (14, {"inception_v4_nvram_traffic_ratio": 0.31, "densenet264_nvram_traffic_ratio": 0.69}, True),
    (14, {"inception_v4_nvram_traffic_ratio": 0.3, "densenet264_nvram_traffic_ratio": 0.5}, False),
    (14, {"inception_v4_nvram_traffic_ratio": 0.5, "densenet264_nvram_traffic_ratio": 0.7}, False),
]


def test_every_row_is_pinned():
    assert {row for row, _, _ in BOUNDS} == set(range(len(CLAIMS)))


@pytest.mark.parametrize("row, metrics, holds", BOUNDS)
def test_bound(row, metrics, holds):
    assert CLAIMS[row].holds(metrics) is holds


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.description)
def test_missing_metric_raises_key_error(claim):
    with pytest.raises(KeyError):
        claim.holds({})


def test_paper_baselines_come_from_the_table():
    for claim in CLAIMS:
        for metric, value in claim.paper.items():
            assert PAPER_BASELINES[claim.experiment][metric] == value
    assert PAPER_BASELINES["check"] == {"all_pass": 1.0}


def test_missing_metric_is_an_error_row(monkeypatch):
    # Every row's metrics just inside its bounds, except fig2's peak_read.
    metrics = {}
    for row, values, holds in BOUNDS:
        if holds:
            metrics.setdefault(CLAIMS[row].experiment, {}).update(values)
    del metrics["fig2"]["peak_read"]
    monkeypatch.setattr(check, "headline_metrics", lambda name, data: metrics[name])

    result = check.run(known={name: {} for name in metrics})

    assert result.data == {"passed": len(CLAIMS) - 1, "total": len(CLAIMS), "all_pass": False}
    text = result.render()
    assert "ERROR: 'peak_read'" in text
    assert text.count("PASS") == len(CLAIMS) - 1

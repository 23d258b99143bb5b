"""Headline metrics and the paper's claims over them.

``ExperimentResult.data`` is deliberately rich — full grids, traces,
per-series arrays.  The results catalog (:mod:`repro.service.catalog`),
the report renderer (:mod:`repro.report`) and the claim checker
(:mod:`repro.experiments.check`) need the opposite: a small, flat
``{metric: number}`` view per run, stable enough to chart across
commits.  This module is that projection.

Every registered experiment has an entry in :data:`HEADLINES` (REG001
enforces coverage): a hook that digs its headline numbers out of the
experiment's ``data`` dict.  Hooks are defensive — a metric that is
missing (quick-mode grids can differ) is silently dropped rather than
crashing a catalog refresh over an old payload.  Hooks read only what
survives a JSON round-trip (string keys, lists for arrays), so stored
results project to exactly the metrics of freshly computed ones.

:data:`CLAIMS` is the one table of the paper's claims: each row is a
predicate over one experiment's headline metrics, plus the paper's
published value of the metrics it is about.  ``check`` evaluates it;
:data:`PAPER_BASELINES` (the report's paper-vs-repro deltas) is
derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional

from repro.experiments.platform import PAPER_TABLE2

Extractor = Callable[[Mapping[str, Any]], Dict[str, float]]
Metrics = Mapping[str, float]


def _num(data: Any, *path: str) -> Optional[float]:
    """Walk nested dicts; a numeric leaf becomes ``float``, else ``None``."""
    node = data
    for part in path:
        if not isinstance(node, Mapping) or part not in node:
            return None
        node = node[part]
    if isinstance(node, bool):
        return 1.0 if node else 0.0
    if isinstance(node, (int, float)):
        return float(node)
    return None


def _pick(data: Mapping[str, Any], *names: str) -> Dict[str, float]:
    """The named top-level scalars of ``data`` that exist and are numeric."""
    out: Dict[str, float] = {}
    for name in names:
        value = _num(data, name)
        if value is not None:
            out[name] = value
    return out


def _collect(pairs: Iterable[tuple]) -> Dict[str, float]:
    return {name: value for name, value in pairs if value is not None}


def _spread(data: Mapping[str, Any], field: str) -> Dict[str, float]:
    """``{f"{row}_{field}": row[field]}`` over a dict-of-rows table."""
    out: Dict[str, float] = {}
    for name in sorted(data):
        value = _num(data, name, field)
        if value is not None:
            out[f"{name}_{field}"] = value
    return out


# -- per-experiment hooks -------------------------------------------------


def _fig2(data: Mapping[str, Any]) -> Dict[str, float]:
    return _pick(
        data, "peak_read", "peak_write", "write_random_64b_4t", "write_sequential_64b_4t"
    )


def _fig4(data: Mapping[str, Any]) -> Dict[str, float]:
    return _collect(
        [
            (
                "read_clean_miss_amp",
                _num(data, "4a_read_clean_miss", "sequential_64", "amplification"),
            ),
            (
                "read_clean_miss_nvram_gbps",
                _num(data, "4a_read_clean_miss", "sequential_64", "nvram_read"),
            ),
            (
                "write_dirty_miss_amp",
                _num(data, "4b_write_dirty_miss", "sequential_64", "amplification"),
            ),
            ("rmw_ddo_fraction", _num(data, "4c_rmw_ddo", "sequential_64", "ddo_fraction")),
        ]
    )


def _fig5(data: Mapping[str, Any]) -> Dict[str, float]:
    return _pick(
        data,
        "iteration_seconds",
        "hit_rate",
        "clean_misses",
        "dirty_misses",
        "buffer_bytes",
        "cache_bytes",
    )


def _fig6(data: Mapping[str, Any]) -> Dict[str, float]:
    seconds = [_num(data, kind, "seconds") for kind in data]
    bandwidth = [_num(data, kind, "bandwidth_gbps") for kind in data]
    return _collect(
        [
            ("total_seconds", sum(s for s in seconds if s is not None)),
            (
                "peak_bandwidth_gbps",
                max((b for b in bandwidth if b is not None), default=None),
            ),
        ]
    )


def _fig7(data: Mapping[str, Any]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for label in sorted(data):
        value = _num(data, label, "kernels", "pr", "dram_gbps")
        if value is not None:
            out[f"{label}_pr_dram_gbps"] = value
    return out


def _fig8(data: Mapping[str, Any]) -> Dict[str, float]:
    return _spread(data, "amplification")  # "<kernel>_amplification"


def _fig9(data: Mapping[str, Any]) -> Dict[str, float]:
    out = {
        **_spread(data, "hit_rate"),
        **_spread(data, "nvram_gbps"),
    }
    for graph in sorted(data):
        series = data[graph].get("series") if isinstance(data[graph], Mapping) else None
        nvram = series.get("nvram_read") if isinstance(series, Mapping) else None
        if nvram is not None and len(nvram) > 1:  # an array, or its JSON list
            out[f"{graph}_min_nvram_read_after_round0"] = float(min(nvram[1:]))
    return out


def _fig10(data: Mapping[str, Any]) -> Dict[str, float]:
    return _pick(
        data,
        "iteration_seconds",
        "nvram_writes_forward",
        "nvram_writes_backward",
        "nvram_reads_forward",
        "nvram_reads_backward",
    )


def _table1(data: Mapping[str, Any]) -> Dict[str, float]:
    return _pick(data, "matches_paper")


def _table2(data: Mapping[str, Any]) -> Dict[str, float]:
    return {
        **_spread(data, "speedup"),  # "<network>_speedup"
        **_spread(data, "nvram_traffic_ratio"),
    }


def _ablation(data: Mapping[str, Any]) -> Dict[str, float]:
    amps = {
        name: _num(data, name, "amplification")
        for name in data
        if _num(data, name, "amplification") is not None
    }
    return _collect(
        [
            ("variants", float(len(data))),
            ("min_amplification", min(amps.values(), default=None)),
            ("max_amplification", max(amps.values(), default=None)),
        ]
    )


def _dma(data: Mapping[str, Any]) -> Dict[str, float]:
    return _pick(data, "async_over_sync", "async_over_2lm", "2lm_seconds")


def _mix(data: Mapping[str, Any]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for mode in ("1lm", "2lm"):
        curve = data.get(mode)
        if isinstance(curve, Mapping):
            values = [v for v in curve.values() if isinstance(v, (int, float))]
            if values:
                out[f"peak_{mode}_gbps"] = float(max(values))
    return out


def _dlrm(data: Mapping[str, Any]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for phase in sorted(data):
        value = _num(data, phase, "bandana_speedup_over_2lm")
        if value is not None:
            out[f"{phase}_bandana_speedup"] = value
    return out


def _gpt(data: Mapping[str, Any]) -> Dict[str, float]:
    return _pick(data, "speedup", "hit_rate", "nvram_ratio")


#: Per-trace verdict metrics the kvtrace hook flattens into the
#: catalog; the report's hardware-vs-software section is rebuilt from
#: exactly these, so they must stay derivable from headline rows alone.
KVTRACE_VERDICT_METRICS = (
    "hw_gbps",
    "sw_gbps",
    "best_hw_gbps",
    "hw_nvram_writes",
    "sw_nvram_writes",
    "hw_hit_rate",
    "case_holds",
)


def _kvtrace(data: Mapping[str, Any]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for trace in sorted(data):
        node = data.get(trace)
        if not isinstance(node, Mapping) or "_verdict" not in node:
            continue  # e.g. the attached "telemetry" payload
        for metric in KVTRACE_VERDICT_METRICS:
            value = _num(node, "_verdict", metric)
            if value is not None:
                out[f"{trace}_{metric}"] = value
    return out


def _check(data: Mapping[str, Any]) -> Dict[str, float]:
    return _pick(data, "passed", "total", "all_pass")


#: Per-experiment headline hooks; keys mirror the CLI registry exactly
#: (REG001 flags any registered experiment missing here).
HEADLINES: Dict[str, Extractor] = {
    "fig2": _fig2,
    "table1": _table1,
    "fig4": _fig4,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9": _fig9,
    "fig10": _fig10,
    "table2": _table2,
    "ablation": _ablation,
    "dma": _dma,
    "mix": _mix,
    "dlrm": _dlrm,
    "gpt": _gpt,
    "kvtrace": _kvtrace,
    "check": _check,
}


@dataclass(frozen=True)
class Claim:
    """One checkable statement from the paper, over headline metrics."""

    experiment: str
    description: str
    reference: str  # paper section / figure
    #: ``predicate(metrics, paper)``: the experiment's headline metrics
    #: and this row's :attr:`paper` values -> does the claim hold?
    predicate: Callable[[Metrics, Metrics], bool]
    #: The paper's published value of the headline metrics this row is about.
    paper: Mapping[str, float] = field(default_factory=dict)

    def holds(self, metrics: Metrics) -> bool:
        return bool(self.predicate(metrics, self.paper))


def _every(metrics: Metrics, field_name: str) -> List[float]:
    """Every ``<row>_<field_name>`` metric; ``KeyError`` if there are none."""
    values = [value for name, value in metrics.items() if name.endswith(f"_{field_name}")]
    if not values:
        raise KeyError(field_name)
    return values


#: The paper's claims, in ``check`` order (EXPERIMENTS.md has the prose).
CLAIMS: List[Claim] = [
    Claim(
        "fig2",
        "raw NVRAM read peaks just over 30 GB/s",
        "Section III-C",
        lambda m, _: 30 <= m["peak_read"] <= 33,
        paper={"peak_read": 31.0},
    ),
    Claim(
        "fig2",
        "raw NVRAM write peaks near 11 GB/s at 4 threads",
        "Figure 2b",
        lambda m, _: 10 <= m["peak_write"] <= 12,
        paper={"peak_write": 11.0},
    ),
    Claim(
        "fig2",
        "random 64B writes collapse (write amplification)",
        "Section III-C",
        lambda m, _: m["write_random_64b_4t"] < 0.35 * m["write_sequential_64b_4t"],
    ),
    Claim(
        "table1",
        "access counts per request match Table I exactly",
        "Table I",
        lambda m, p: m["matches_paper"] == p["matches_paper"],
        paper={"matches_paper": 1.0},
    ),
    Claim(
        "fig4",
        "clean read miss costs 3 accesses; ~23 GB/s NVRAM read",
        "Figure 4a",
        lambda m, p: abs(m["read_clean_miss_amp"] - p["read_clean_miss_amp"]) < 0.05
        and 20 <= m["read_clean_miss_nvram_gbps"] <= 26,
        paper={"read_clean_miss_amp": 3.0, "read_clean_miss_nvram_gbps": 23.0},
    ),
    Claim(
        "fig4",
        "dirty write miss costs 5 accesses",
        "Figure 4b",
        lambda m, p: abs(m["write_dirty_miss_amp"] - p["write_dirty_miss_amp"]) < 0.05,
        paper={"write_dirty_miss_amp": 5.0},
    ),
    Claim(
        "fig4",
        "RMW write-backs use the Dirty Data Optimization",
        "Figure 4c",
        lambda m, _: m["rmw_ddo_fraction"] > 0.95,
        paper={"rmw_ddo_fraction": 1.0},
    ),
    Claim(
        "fig5",
        "DenseNet in 2LM: dirty misses dominate clean misses",
        "Figure 5b",
        lambda m, _: m["dirty_misses"] > 3 * m["clean_misses"],
    ),
    Claim(
        "fig5",
        "footprint exceeds the DRAM cache",
        "Section V-A",
        lambda m, _: m["buffer_bytes"] > m["cache_bytes"],
    ),
    Claim(
        "fig7",
        "DRAM bandwidth collapses when the graph exceeds the cache",
        "Figure 7",
        lambda m, _: m["wdc_pr_dram_gbps"] < 0.7 * m["kron_pr_dram_gbps"],
    ),
    Claim(
        "fig8",
        "2LM amplifies every graph kernel's data movement",
        "Figure 8",
        lambda m, _: all(amp > 1.1 for amp in _every(m, "amplification")),
    ),
    Claim(
        "fig9",
        "cache-exceeding pagerank keeps NVRAM busy every round",
        "Figure 9b",
        lambda m, _: m["wdc_min_nvram_read_after_round0"] > 0,
    ),
    Claim(
        "fig10",
        "AutoTM: NVRAM writes forward-only, reads backward-only",
        "Figure 10",
        lambda m, _: m["nvram_writes_forward"] > 100 * max(m["nvram_writes_backward"], 1)
        and m["nvram_reads_backward"] > 100 * max(m["nvram_reads_forward"], 1),
    ),
    Claim(
        "table2",
        "AutoTM faster than 2LM for all three CNNs, DenseNet most",
        "Table II",
        lambda m, _: all(speedup > 1.1 for speedup in _every(m, "speedup"))
        and m["densenet264_speedup"] > m["inception_v4_speedup"],
        paper={f"{network}_speedup": row["speedup"] for network, row in PAPER_TABLE2.items()},
    ),
    Claim(
        "table2",
        "AutoTM moves ~50-60% of 2LM's NVRAM traffic",
        "Table II",
        lambda m, _: all(0.3 < ratio < 0.7 for ratio in _every(m, "nvram_traffic_ratio")),
    ),
]


def _paper_baselines() -> Dict[str, Dict[str, float]]:
    baselines: Dict[str, Dict[str, float]] = {}
    for claim in CLAIMS:
        if claim.paper:
            baselines.setdefault(claim.experiment, {}).update(claim.paper)
    # check's own headline: in the paper, every claim above holds.
    baselines["check"] = {"all_pass": 1.0}
    return baselines


#: The paper's published value for headline metrics that have one, per
#: experiment, collected from :data:`CLAIMS`; reports compute
#: paper-vs-repro deltas from these.
PAPER_BASELINES: Dict[str, Dict[str, float]] = _paper_baselines()


def headline_metrics(experiment: str, data: Mapping[str, Any]) -> Dict[str, float]:
    """The flat headline view of one run's ``data``.

    Unregistered experiment names (service stubs, retired experiments
    still present in an old store) fall back to the generic projection:
    every numeric top-level scalar of ``data``.
    """
    hook = HEADLINES.get(experiment)
    if hook is None:
        return {
            name: _num(data, name)
            for name in sorted(data)
            if _num(data, name) is not None
        }
    if not isinstance(data, Mapping):
        return {}
    return hook(data)

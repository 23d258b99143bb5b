"""Shape-claim checker: does the simulator still reproduce the paper?

``repro-experiment check`` runs the quick experiments and evaluates the
paper's headline claims as PASS/FAIL rows — the executable form of
EXPERIMENTS.md.  Each claim is a named predicate over experiment data,
so regressions in the model are caught with a one-line verdict instead
of a diff of numbers.

``repro-experiment all`` evaluates ``check`` last and hands it the data
of every experiment that run just computed, so no experiment runs
twice; ``check`` computes only what it was not given.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional

from repro.experiments.base import ExperimentResult
from repro.perf.report import render_table


@dataclass(frozen=True)
class Claim:
    """One checkable statement from the paper."""

    experiment: str
    description: str
    predicate: Callable[[dict], bool]
    reference: str  # paper section / figure


CLAIMS: List[Claim] = [
    Claim(
        "fig2",
        "raw NVRAM read peaks just over 30 GB/s",
        lambda d: 30 <= d["peak_read"] <= 33,
        "Section III-C",
    ),
    Claim(
        "fig2",
        "raw NVRAM write peaks near 11 GB/s at 4 threads",
        lambda d: 10 <= d["peak_write"] <= 12,
        "Figure 2b",
    ),
    Claim(
        "fig2",
        "random 64B writes collapse (write amplification)",
        lambda d: d["bandwidth"]["write"][("random", 64, 4)]
        < 0.35 * d["bandwidth"]["write"][("sequential", 64, 4)],
        "Section III-C",
    ),
    Claim(
        "table1",
        "access counts per request match Table I exactly",
        lambda d: d["matches_paper"],
        "Table I",
    ),
    Claim(
        "fig4",
        "clean read miss costs 3 accesses; ~23 GB/s NVRAM read",
        lambda d: abs(d["4a_read_clean_miss"]["sequential_64"]["amplification"] - 3.0)
        < 0.05
        and 20 <= d["4a_read_clean_miss"]["sequential_64"]["nvram_read"] <= 26,
        "Figure 4a",
    ),
    Claim(
        "fig4",
        "dirty write miss costs 5 accesses",
        lambda d: abs(d["4b_write_dirty_miss"]["sequential_64"]["amplification"] - 5.0)
        < 0.05,
        "Figure 4b",
    ),
    Claim(
        "fig4",
        "RMW write-backs use the Dirty Data Optimization",
        lambda d: d["4c_rmw_ddo"]["sequential_64"]["ddo_fraction"] > 0.95,
        "Figure 4c",
    ),
    Claim(
        "fig5",
        "DenseNet in 2LM: dirty misses dominate clean misses",
        lambda d: d["dirty_misses"] > 3 * d["clean_misses"],
        "Figure 5b",
    ),
    Claim(
        "fig5",
        "footprint exceeds the DRAM cache",
        lambda d: d["buffer_bytes"] > d["cache_bytes"],
        "Section V-A",
    ),
    Claim(
        "fig7",
        "DRAM bandwidth collapses when the graph exceeds the cache",
        lambda d: d["wdc"]["kernels"]["pr"]["dram_gbps"]
        < 0.7 * d["kron"]["kernels"]["pr"]["dram_gbps"],
        "Figure 7",
    ),
    Claim(
        "fig8",
        "2LM amplifies every graph kernel's data movement",
        lambda d: all(row["amplification"] > 1.1 for row in d.values()),
        "Figure 8",
    ),
    Claim(
        "fig9",
        "cache-exceeding pagerank keeps NVRAM busy every round",
        lambda d: bool((d["wdc"]["series"]["nvram_read"][1:] > 0).all()),
        "Figure 9b",
    ),
    Claim(
        "fig10",
        "AutoTM: NVRAM writes forward-only, reads backward-only",
        lambda d: d["nvram_writes_forward"] > 100 * max(d["nvram_writes_backward"], 1)
        and d["nvram_reads_backward"] > 100 * max(d["nvram_reads_forward"], 1),
        "Figure 10",
    ),
    Claim(
        "table2",
        "AutoTM faster than 2LM for all three CNNs, DenseNet most",
        lambda d: all(row["speedup"] > 1.1 for row in d.values())
        and d["densenet264"]["speedup"] > d["inception_v4"]["speedup"],
        "Table II",
    ),
    Claim(
        "table2",
        "AutoTM moves ~50-60% of 2LM's NVRAM traffic",
        lambda d: all(0.3 < row["nvram_traffic_ratio"] < 0.7 for row in d.values()),
        "Table II",
    ),
]


def run(quick: bool = True, known: Optional[Mapping[str, dict]] = None) -> ExperimentResult:
    """Evaluate every claim; quick mode is the default (and recommended).

    ``known`` maps experiment names to ``ExperimentResult.data`` already
    computed in this process at the same ``quick`` setting; only the
    experiments it lacks are run.  Data read back from the result store
    does not qualify: its JSON round-trip drops the tuple keys some
    predicates index.
    """
    # Imported here: the registry imports this module at package load.
    from repro.experiments.registry import run_experiment

    cache: Dict[str, dict] = dict(known or {})
    rows = []
    passed = 0
    for claim in CLAIMS:
        if claim.experiment not in cache:
            cache[claim.experiment] = run_experiment(claim.experiment, quick=quick).data
        try:
            ok = bool(claim.predicate(cache[claim.experiment]))
        # Claim boundary: a predicate crashing on malformed data is a
        # FAIL verdict for that claim, never a crash of the checker.
        except Exception as error:  # repro-lint: disable=EXC001
            ok = False
            rows.append([claim.experiment, claim.description, f"ERROR: {error}"])
            continue
        passed += ok
        rows.append(
            [claim.experiment, f"{claim.description} ({claim.reference})",
             "PASS" if ok else "FAIL"]
        )

    result = ExperimentResult(
        name="check", title="Executable paper-claim verification"
    )
    result.add(render_table(["experiment", "claim", "verdict"], rows))
    result.add(f"{passed}/{len(CLAIMS)} claims hold")
    result.data = {
        "passed": passed,
        "total": len(CLAIMS),
        "all_pass": passed == len(CLAIMS),
    }
    return result

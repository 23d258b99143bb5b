"""Shape-claim checker: does the simulator still reproduce the paper?

``repro-experiment check`` runs the quick experiments and evaluates the
paper's headline claims as PASS/FAIL rows — the executable form of
EXPERIMENTS.md.  The claims live in one table,
:data:`repro.experiments.headline.CLAIMS`: each is a predicate over an
experiment's headline metrics, so regressions in the model are caught
with a one-line verdict instead of a diff of numbers.

``repro-experiment all`` evaluates ``check`` last and hands it the data
of every experiment it finished, computed or served from the result
store, so no experiment runs twice; ``check`` computes only what it
was not given.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.experiments.base import ExperimentResult
from repro.experiments.headline import CLAIMS, headline_metrics
from repro.perf.report import render_table


def run(quick: bool = True, known: Optional[Mapping[str, dict]] = None) -> ExperimentResult:
    """Evaluate every claim; quick mode is the default (and recommended).

    ``known`` maps experiment names to ``ExperimentResult.data`` at the
    same ``quick`` setting, freshly computed or read back from the
    result store; only the experiments it lacks are run.
    """
    # Imported here: the registry imports this module at package load.
    from repro.experiments.registry import run_experiment

    data: Dict[str, Mapping] = dict(known or {})
    metrics: Dict[str, Dict[str, float]] = {}
    rows = []
    passed = 0
    for claim in CLAIMS:
        name = claim.experiment
        if name not in metrics:
            if name not in data:
                data[name] = run_experiment(name, quick=quick).data
            metrics[name] = headline_metrics(name, data[name])
        try:
            ok = claim.holds(metrics[name])
        # Claim boundary: a predicate crashing on a missing metric is a
        # FAIL verdict for that claim, never a crash of the checker.
        except Exception as error:  # repro-lint: disable=EXC001
            ok = False
            rows.append([name, claim.description, f"ERROR: {error}"])
            continue
        passed += ok
        rows.append([name, f"{claim.description} ({claim.reference})", "PASS" if ok else "FAIL"])

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

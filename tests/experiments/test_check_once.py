"""``repro-experiment all`` runs every experiment exactly once.

``all`` evaluates ``check`` last, over the data of every experiment the
run computed or served from the store, instead of letting ``check``
re-run the experiments its claims read.
Every registered callable is replaced by a spy that logs each call to a
file (fork workers append to the same file).  The experiments the
claims read return real quick results, computed once for this module;
the rest return small stand-ins, since nothing reads their data.
"""

import copy
import json
from collections import Counter

import pytest

from repro.exec import fork_available
from repro.experiments.base import ExperimentResult
from repro.experiments.cli import main
from repro.experiments.headline import CLAIMS
from repro.experiments.registry import EXPERIMENTS, registered_names

CLAIMED = sorted({claim.experiment for claim in CLAIMS})


@pytest.fixture(scope="module")
def real_results():
    return {name: EXPERIMENTS[name](quick=True) for name in CLAIMED}


@pytest.fixture
def calls(monkeypatch, tmp_path, real_results):
    """Spy on every registry callable; returns a reader of the call log."""
    log = tmp_path / "calls.log"
    log.touch()

    def spy(name, original):
        def run(quick=False, jobs=1, **kwargs):
            with open(log, "a") as handle:
                handle.write(name + "\n")
            if name == "check":
                return original(quick=quick, **kwargs)
            if name in real_results:
                return copy.deepcopy(real_results[name])
            stand_in = ExperimentResult(name=name, title=f"{name} stand-in")
            stand_in.add(f"{name} ran")
            stand_in.data = {"ran": 1}
            return stand_in

        return run

    for name, original in list(EXPERIMENTS.items()):
        monkeypatch.setitem(EXPERIMENTS, name, spy(name, original))

    def read():
        counts = Counter(log.read_text().split())
        log.write_text("")
        return counts

    return read


def _check_export(directory):
    return json.loads((directory / "check.json").read_text())


def test_serial_all_calls_each_experiment_once(calls, capsys):
    assert main(["all", "--quick"]) == 0
    assert calls() == Counter(registered_names())
    assert "15/15 claims hold" in capsys.readouterr().out


@pytest.mark.skipif(not fork_available(), reason="platform has no fork start method")
def test_parallel_all_calls_each_experiment_once(calls, capsys):
    assert main(["all", "--quick", "--jobs", "2"]) == 0
    assert calls() == Counter(registered_names())
    assert "15/15 claims hold" in capsys.readouterr().out


def test_check_verdicts_equal_standalone_check(calls, tmp_path, capsys):
    assert main(["all", "--quick", "--json", str(tmp_path / "all")]) == 0
    calls()
    assert main(["check", "--quick", "--json", str(tmp_path / "alone")]) == 0
    assert calls() == Counter(["check", *CLAIMED])
    from_all = _check_export(tmp_path / "all")
    alone = _check_export(tmp_path / "alone")
    assert from_all["rendering"] == alone["rendering"]
    assert from_all["data"] == alone["data"] == {"all_pass": True, "passed": 15, "total": 15}


def test_store_served_experiments_are_not_recomputed(calls, tmp_path, capsys):
    store = tmp_path / "store"
    seeded = ["fig2", "table2", "mix"]
    for name in seeded:
        assert main([name, "--quick", "--store", str(store)]) == 0
    calls()
    assert main(["all", "--quick", "--store", str(store), "--json", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert out.count("(served from store)") == len(seeded)
    # check reads the served experiments' stored data: 'all' simulates
    # exactly the unseeded experiments, once each, and nothing else.
    assert calls() == Counter(name for name in registered_names() if name not in seeded)
    assert _check_export(tmp_path / "out")["data"] == {
        "all_pass": True, "passed": 15, "total": 15,
    }

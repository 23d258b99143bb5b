"""Benchmark of the ``repro`` simulator, end to end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload autotm-cnn [--seed 7] [--seconds 30] [--trace 0]

Workloads (see ``definitions.json`` for what each pins):

* ``autotm-cnn``  the Table II path at ``--quick`` sizes: 2LM and AutoTM
  iterations of inception_v4, resnet200 and densenet264.
* ``kv-replay``   six seeded storage/KV traces, each replayed through
  every cache model and the software placement.
* ``paper-quick`` ``repro-experiment all --quick`` into an empty store.

Every repetition runs in a fresh interpreter (``child.py``).  With
``--trace 0`` the benchmark repeats the workload for about ``--seconds``
seconds, plus a few set-up-only starts, and reports medians of the
end-to-end metrics.  With ``--trace 1`` it runs the workload once
untraced and once with spans at every layer boundary, checks that both
simulated the same thing, and reports the per-layer metrics.  The last
line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import layers  # noqa: E402  (sys.path[0] is this directory)

#: Set-up-only starts per untraced run, so ``setup_s`` is a median.
SETUP_STARTS = 3
#: A run must end well inside three minutes.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not measure: no result line is printed."""


class Runner:
    """Starts repetitions of one workload, each in a fresh interpreter."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.scratch = ROOT / ".perfbench" / f"{workload}-{os.getpid()}"
        self.env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            PYTHONHASHSEED="0",
            # One BLAS/OpenMP thread: the simulator is single-threaded
            # and extra pool threads only add scheduling noise.
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        self.starts = 0

    def child(self, *, setup_only: bool = False, trace_file: Path | None = None) -> Dict[str, Any]:
        self.starts += 1
        workdir = self.scratch / str(self.starts)
        command = [
            sys.executable, str(HERE / "child.py"),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--workdir", str(workdir),
        ]
        if setup_only:
            command.append("--setup-only")
        if trace_file is not None:
            command += ["--trace-file", str(trace_file)]
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("out of time before the next repetition")
        command += ["--spawned-at", repr(time.time())]
        try:
            done = subprocess.run(
                command, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                text=True, timeout=remaining, check=False,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{self.workload} repetition did not finish in time") from None
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if done.returncode != 0:
            raise BenchError(f"{self.workload} repetition exited with {done.returncode}")
        return json.loads(done.stdout.strip().splitlines()[-1])

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


def paper_err_pct(workload: str, headlines: Dict[str, float], problems: List[str]) -> float:
    """Mean |repro - paper| / paper over the pinned keys, in percent.

    A workload with no paper reference (kv-replay) is unvalidated and
    reads 100, the error of reproducing nothing.
    """
    pinned = layers.PINS["paper_baselines"][workload]
    if not pinned:
        return 100.0
    errors = []
    for key, paper in pinned.items():
        if key not in headlines:
            problems.append(f"headline {key} missing")
            continue
        errors.append(abs(headlines[key] - paper) / paper)
    return 100.0 * sum(errors) / max(len(errors), 1)


def _same(reps: List[Dict[str, Any]], key: str, problems: List[str]) -> None:
    values = {json.dumps(rep[key], sort_keys=True) for rep in reps}
    if len(values) > 1:
        problems.append(f"{key} differs between repetitions of one input")


def _failed(rep: Dict[str, Any]) -> int:
    return min(len(rep["failures"]), rep["attempted"])


def measure(runner: Runner, seconds: float, problems: List[str]):
    """Untraced repetitions; end-to-end metrics as medians."""
    setups = [runner.child(setup_only=True)["setup_s"] for _ in range(SETUP_STARTS)]
    reps: List[Dict[str, Any]] = []
    durations: List[float] = []
    began = time.monotonic()
    while True:
        start = time.monotonic()
        reps.append(runner.child())
        durations.append(time.monotonic() - start)
        elapsed = time.monotonic() - began
        if elapsed + statistics.median(durations) > seconds:
            break
    for key in ("digest", "headlines"):
        _same(reps, key, problems)
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(_failed(rep) for rep in reps)
    metrics = {
        "wall_s": (statistics.median(rep["wall_s"] for rep in reps), "s"),
        "setup_s": (statistics.median(setups + [rep["setup_s"] for rep in reps]), "s"),
        "peak_rss_mb": (statistics.median(rep["peak_rss_mb"] for rep in reps), "MB"),
        "sim_lines_per_s": (
            statistics.median(rep["sim_lines"] / rep["wall_s"] for rep in reps), "1/s"
        ),
        "paper_err_pct": (paper_err_pct(runner.workload, reps[0]["headlines"], problems), "%"),
        "ops_ok_frac": ((attempted - failed) / attempted, "frac"),
    }
    return reps, attempted, failed, metrics


def measure_layers(runner: Runner, problems: List[str]):
    """One untraced and one traced repetition; per-layer metrics."""
    plain = runner.child()
    trace_file = ROOT / ".perfbench" / f"{runner.workload}-seed{runner.seed}.trace.json"
    traced = runner.child(trace_file=trace_file)
    reps = [plain, traced]
    for key in ("digest", "headlines"):
        _same(reps, key, problems)
    values = dict(traced["layers"])
    if values["memsys.lines"] != traced["sim_lines"]:
        problems.append(
            f"memsys.lines {values['memsys.lines']} at the access boundary != "
            f"{traced['sim_lines']} in the counter banks"
        )
    if traced["unpatched"]:
        problems.append(f"calls bypass the span wrappers: {traced['unpatched']}")
    exercised = layers.PINS["exercised"][runner.workload]
    idle = [name for name in exercised if not values[name]]
    if idle:
        problems.append(f"no spans recorded for {', '.join(idle)}")
    values["memsys.sim_s"] = traced["sim_s"]
    values["unattributed_s"] = traced["traced_s"] - traced["attributed_s"]
    values["obs.trace_overhead_pct"] = 100.0 * (traced["wall_s"] / plain["wall_s"] - 1.0)
    metrics = {
        name: (values[name], unit) for name, unit, _, _ in layers.metric_table(layers.PINS)
    }
    print(f"trace: {trace_file.relative_to(ROOT)}")
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(_failed(rep) for rep in reps)
    return reps, attempted, failed, metrics


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(layers.PINS["exercised"]))
    parser.add_argument("--seed", type=int, default=layers.PINS["seeds"]["default"])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed)
    problems: List[str] = []
    try:
        if args.trace:
            reps, attempted, failed, metrics = measure_layers(runner, problems)
        else:
            reps, attempted, failed, metrics = measure(runner, args.seconds, problems)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        runner.close()

    for rep in reps:
        for op, reason in sorted(rep["failures"].items()):
            problems.append(f"{op}: {reason}")
    print(f"workload {args.workload}, seed {args.seed}, {len(reps)} repetition(s)")
    print(f"digest {reps[0]['digest']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {unit}")
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One repetition of a workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so no memo of an
earlier repetition can make a later one cheaper.  It prints one JSON
object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List


def _memos() -> Dict[str, Any]:
    """Every ``functools.lru_cache`` in the loaded ``repro`` modules."""
    found: Dict[str, Any] = {}
    for name, module in sorted(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_info", None)):
                found[f"{value.__module__}.{value.__qualname__}"] = value
    return found


def _record_counter_banks() -> List[Any]:
    """Collect every ``UncoreCounters`` bank the run creates.

    All simulated traffic is charged to some bank, so summing the banks
    at the end counts every simulated access without touching the
    per-access path.
    """
    from repro.perf.counters import UncoreCounters

    banks: List[Any] = []
    init = UncoreCounters.__init__

    def registering_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        banks.append(self)

    UncoreCounters.__init__ = registering_init
    return banks


def _digest(banks: List[Any], outputs: List[Any]) -> str:
    """SHA-256 over every bank's counts and the workload's outputs."""
    payload = {
        "banks": [
            [bank.traffic.as_dict(), bank.tags.as_dict(), bank.time, bank.instructions]
            for bank in banks
        ],
        "outputs": outputs,
    }
    text = json.dumps(payload, sort_keys=True, default=lambda value: value.item())
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() of the parent just before it started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-file", help="trace the run and write a Chrome trace here")
    args = parser.parse_args()

    import repro.experiments.cli  # noqa: F401  (the whole program)
    import repro.service.store  # noqa: F401

    import layers
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    memos = _memos()
    banks = _record_counter_banks()
    recorder = patcher = None
    if args.trace_file:
        from repro.obs import SpanTracer

        recorder = layers.Recorder(tracer=SpanTracer())
        patcher = layers.install(recorder)
    traced_from = time.perf_counter()

    inputs = workload.setup(args.seed, Path(args.workdir))
    result: Dict[str, Any] = {"setup_s": time.time() - args.spawned_at}
    if not args.setup_only:
        warm = sorted(
            name
            for name, memo in memos.items()
            if memo.cache_info().currsize and name not in workload.input_memos
        )
        if warm:
            print(f"memos warm before timing: {', '.join(warm)}", file=sys.stderr)
            return 3
        scope = recorder.scope if recorder is not None else lambda name: contextlib.nullcontext()
        start = time.perf_counter()
        outcome = workload.run(inputs, scope)
        end = time.perf_counter()
        result.update(
            wall_s=end - start,
            attempted=outcome.attempted,
            failures=outcome.failures,
            headlines=outcome.headlines,
            sim_lines=sum(bank.traffic.total_accesses for bank in banks),
            sim_s=sum(bank.time for bank in banks),
            digest=_digest(banks, outcome.outputs),
        )
        if recorder is not None:
            result.update(
                layers=layers.layer_values(recorder, layers.PINS),
                traced_s=end - traced_from,
                attributed_s=recorder.attributed(),
                unpatched=patcher.unpatched(),
            )
            recorder.tracer.write_chrome(args.trace_file)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

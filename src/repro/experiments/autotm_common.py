"""Shared (cached) CNN runs for the AutoTM experiments (Fig. 10, Table II).

:func:`measure_2lm` and :func:`place_autotm` are the one recipe for a
measured 2LM iteration and the one AutoTM budget back-off; every
experiment that runs either mode goes through them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from repro.autotm import PlacementProblem, execute_autotm, solve_greedy, solve_ilp
from repro.autotm.executor import AutoTMResult
from repro.cache import CacheModel, DirectMappedCache
from repro.config import PlatformConfig
from repro.errors import ConfigurationError, SolverError
from repro.experiments.platform import CNN_STRIDE, cnn_platform_for, training_setup
from repro.memsys import CachedBackend
from repro.nn import execute_iteration
from repro.nn.autodiff import TrainingGraph
from repro.nn.executor import ExecutionResult
from repro.nn.planner import MemoryPlan

#: Fraction of the socket's DRAM handed to AutoTM (headroom for
#: first-fit fragmentation, as in real AutoTM budgets).
AUTOTM_BUDGET_FRACTION = 0.8


def measure_2lm(
    plan: MemoryPlan,
    platform: PlatformConfig,
    make_cache: Callable[[int], CacheModel] = DirectMappedCache,
    stride: int = CNN_STRIDE,
    granule: int = 1,
) -> ExecutionResult:
    """One measured 2LM training iteration, after one warm-up on the same cache.

    ``stride`` and ``granule`` are the executor's sampling rule (see
    :mod:`repro.nn.executor`): granule 1 samples lines, a sector cache
    samples by its sector.
    """
    backend = CachedBackend(platform, make_cache(platform.socket.dram_capacity))
    execute_iteration(plan, backend, sample_stride=stride, granule=granule)  # warm-up
    return execute_iteration(plan, backend, sample_stride=stride, granule=granule)


def place_autotm(training: TrainingGraph, platform: PlatformConfig, quick: bool) -> AutoTMResult:
    """Solve and run one AutoTM iteration, backing the DRAM budget off until it fits.

    The placement budget leaves headroom for first-fit fragmentation; if
    the physical pool still overflows, the budget backs off and the
    problem is re-solved — the same outer loop a practitioner runs.  The
    ILP falls back to the greedy solver when HiGHS fails.
    """
    last_error: Exception | None = None
    for fraction in (AUTOTM_BUDGET_FRACTION, 0.65, 0.5, 0.35):
        budget = int(platform.socket.dram_capacity * fraction)
        problem = PlacementProblem.build(training, platform, budget, capacity_stride=4)
        try:
            plan = solve_ilp(problem, time_limit=30.0 if quick else 120.0)
        except SolverError:
            plan = solve_greedy(problem)
        try:
            return execute_autotm(training, plan, platform, sample_stride=CNN_STRIDE)
        except ConfigurationError as error:
            last_error = error
    raise ConfigurationError(
        f"AutoTM could not fit {training.graph.name} in DRAM at any budget"
    ) from last_error


@lru_cache(maxsize=8)
def run_2lm(network: str, quick: bool = False) -> ExecutionResult:
    """One measured 2LM training iteration of ``network`` (memoized)."""
    return measure_2lm(training_setup(network, quick)[1], cnn_platform_for(quick))


@lru_cache(maxsize=8)
def run_autotm(network: str, quick: bool = False) -> AutoTMResult:
    """One AutoTM training iteration of ``network`` (memoized)."""
    return place_autotm(training_setup(network, quick)[0], cnn_platform_for(quick), quick)

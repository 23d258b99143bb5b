"""Exact placement via integer linear programming (scipy / HiGHS).

Mirrors AutoTM's formulation at tensor granularity: one binary variable
per (tensor, mode), a one-hot constraint per tensor, and a DRAM
capacity constraint per schedule checkpoint.  Solved with
``scipy.optimize.milp`` (the HiGHS branch-and-bound solver).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.autotm.model import (
    CandidateTensor,
    PlacementMode,
    PlacementPlan,
    PlacementProblem,
)
from repro.errors import SolverError
from repro.nn.ir import Tensor


def _variables(problem: PlacementProblem) -> List[Tuple[CandidateTensor, PlacementMode]]:
    variables: List[Tuple[CandidateTensor, PlacementMode]] = []
    for candidate in problem.candidates:
        variables.append((candidate, PlacementMode.DRAM))
        variables.append((candidate, PlacementMode.NVRAM))
        if candidate.stash_eligible:
            variables.append((candidate, PlacementMode.STASH))
    return variables


def solve_ilp(problem: PlacementProblem, time_limit: float = 120.0) -> PlacementPlan:
    """Solve the placement ILP; raises :class:`SolverError` on failure."""
    variables = _variables(problem)
    n = len(variables)
    if not n:
        return PlacementPlan(
            placements={}, objective_seconds=0.0, budget_bytes=problem.budget_bytes,
            solver="ilp",
        )

    cost = np.zeros(n)
    for j, (candidate, mode) in enumerate(variables):
        if mode is PlacementMode.NVRAM:
            cost[j] = candidate.nvram_cost
        elif mode is PlacementMode.STASH:
            cost[j] = candidate.stash_cost or 0.0

    constraints = []

    # One-hot: each tensor picks exactly one mode.
    tensor_index = {c.tensor: i for i, c in enumerate(problem.candidates)}
    rows = [tensor_index[c.tensor] for c, _ in variables]
    onehot = sparse.csr_matrix(
        (np.ones(n), (rows, np.arange(n))), shape=(len(problem.candidates), n)
    )
    ones = np.ones(len(problem.candidates))
    constraints.append(LinearConstraint(onehot, ones, ones))

    # Capacity at every checkpoint: one row per checkpoint, the DRAM
    # bytes of every variable that holds DRAM there.
    occupancy = problem.occupancy(variables)
    checkpoints = occupancy.shape[0]
    cap_rows, cap_cols = np.nonzero(occupancy)
    if cap_rows.size:
        sizes = np.array([c.tensor.size_bytes for c, _ in variables], dtype=np.float64)
        capacity = sparse.csr_matrix(
            (sizes[cap_cols], (cap_rows, cap_cols)), shape=(checkpoints, n)
        )
        upper = np.full(checkpoints, float(problem.budget_bytes - problem.pinned_bytes))
        constraints.append(
            LinearConstraint(capacity, np.full(checkpoints, -np.inf), upper)
        )

    result = milp(
        c=cost,
        constraints=constraints,
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
        options={"time_limit": time_limit},
    )
    if not result.success or result.x is None:
        raise SolverError(f"HiGHS failed to solve the placement ILP: {result.message}")

    placements: Dict[Tensor, object] = {}
    for j, (candidate, mode) in enumerate(variables):
        if result.x[j] > 0.5:
            placements[candidate.tensor] = problem.placement_for(candidate, mode)
    missing = [c for c in problem.candidates if c.tensor not in placements]
    if missing:
        raise SolverError(f"{len(missing)} tensors received no placement")

    return PlacementPlan(
        placements=placements,  # type: ignore[arg-type]
        objective_seconds=float(result.fun),
        budget_bytes=problem.budget_bytes,
        solver="ilp",
    )

"""The vectorized occupancy matrix against the scalar ``occupies_dram``.

``PlacementProblem.occupancy`` is the single capacity definition the
ILP, the greedy solver and ``is_feasible`` build on.  These tests pin
it to the scalar reference on the quick-size CNN problems the Table II
path solves, and pin what the solvers derive from it: the ILP's
capacity CSR (HiGHS tie-breaking depends on its exact layout) and the
greedy plans.
"""

import hashlib
import json

import numpy as np
import pytest
from scipy import sparse

from repro.autotm import (
    PlacementMode,
    PlacementPlan,
    PlacementProblem,
    solve_greedy,
    solve_ilp,
)
from repro.autotm import ilp as ilp_module
from repro.autotm.ilp import _variables
from repro.errors import ConfigurationError
from repro.experiments.platform import cnn_platform_for, training_setup


def quick_problem(network, budget_fraction=0.8, capacity_stride=4):
    platform = cnn_platform_for(True)
    training, _ = training_setup(network, True)
    budget = int(platform.socket.dram_capacity * budget_fraction)
    return PlacementProblem.build(
        training, platform, budget, capacity_stride=capacity_stride
    )


def reference_capacity(problem, variables):
    """The occupancy matrix and capacity CSR, one scalar call per cell."""
    checkpoints = problem.capacity_checkpoints()
    matrix = np.zeros((len(checkpoints), len(variables)), dtype=bool)
    rows, cols, vals = [], [], []
    for i, point in enumerate(checkpoints):
        for j, (candidate, mode) in enumerate(variables):
            if problem.occupies_dram(candidate, mode, point):
                matrix[i, j] = True
                rows.append(i)
                cols.append(j)
                vals.append(float(candidate.tensor.size_bytes))
    csr = sparse.csr_matrix((vals, (rows, cols)), shape=matrix.shape)
    return matrix, csr


class _Captured(Exception):
    pass


def ilp_capacity(problem, monkeypatch):
    """The capacity constraint ``solve_ilp`` hands to HiGHS."""
    seen = {}

    def capture(**kwargs):
        seen["constraints"] = kwargs["constraints"]
        raise _Captured

    monkeypatch.setattr(ilp_module, "milp", capture)
    with pytest.raises(_Captured):
        solve_ilp(problem)
    onehot, capacity = seen["constraints"]
    return capacity.A


@pytest.mark.parametrize("capacity_stride", [1, 4])
@pytest.mark.parametrize("network", ["inception_v4", "densenet264"])
def test_occupancy_and_ilp_csr_match_scalar_reference(network, capacity_stride, monkeypatch):
    problem = quick_problem(network, capacity_stride=capacity_stride)
    variables = _variables(problem)
    assert {mode for _, mode in variables} == set(PlacementMode)
    matrix, reference = reference_capacity(problem, variables)

    occupancy = problem.occupancy(variables)
    assert occupancy.dtype == bool
    np.testing.assert_array_equal(occupancy, matrix)

    built = ilp_capacity(problem, monkeypatch)
    assert built.shape == reference.shape
    for part in ("indptr", "indices", "data"):
        expected, actual = getattr(reference, part), getattr(built, part)
        assert actual.dtype == expected.dtype, part
        np.testing.assert_array_equal(actual, expected, err_msg=part)


def test_occupancy_rejects_stash_for_ineligible_tensor():
    problem = quick_problem("inception_v4")
    ineligible = next(c for c in problem.candidates if not c.stash_eligible)
    with pytest.raises(ConfigurationError):
        problem.occupancy([(ineligible, PlacementMode.STASH)])


def _plan_digest(problem, plan):
    rows = [
        [
            c.tensor.name,
            plan.placements[c.tensor].mode.value,
            plan.placements[c.tensor].stash_after,
            plan.placements[c.tensor].restore_before,
        ]
        for c in problem.candidates
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


#: Greedy plans from the scalar per-cell occupancy loops, by
#: (network, budget fraction, capacity stride).
GREEDY_PLANS = {
    ("inception_v4", 0.8, 4): "627edc7c5f6b7e152288093845ba3448eac0c40024978caff87eeb143b0e0054",
    ("inception_v4", 0.35, 1): "d27c1a0cf21c858798c33a8524537ed8a4e88ea66e1046d0525a4336b37ceeb7",
    ("resnet200", 0.8, 4): "71fff367d1fcca9bf64da02bae5c91c9d74075224093e0850ce69838a7b7b3af",
    ("resnet200", 0.35, 1): "ece5523c5b5fefe20594b60f680da85f1f69983923cea403daa613b51e4dc7cb",
    ("densenet264", 0.8, 4): "a7fc19c2456806b57ec279a65f77f1f8e68459933404e6a41f2d2090427599f1",
    ("densenet264", 0.35, 1): "98fe38258a9818baac492435ae80c4cd94f039f4502ed5fd029e2131b55dc249",
}


@pytest.mark.parametrize("key", sorted(GREEDY_PLANS))
def test_greedy_plans_unchanged(key):
    network, fraction, stride = key
    problem = quick_problem(network, fraction, stride)
    plan = solve_greedy(problem)
    assert _plan_digest(problem, plan) == GREEDY_PLANS[key]
    assert problem.is_feasible(plan)


def test_is_feasible_agrees_with_scalar_definition():
    problem = quick_problem("resnet200", 0.35, 4)
    plan = solve_greedy(problem)
    everything_dram = PlacementPlan(
        placements={
            c.tensor: problem.placement_for(c, PlacementMode.DRAM)
            for c in problem.candidates
        },
        objective_seconds=0.0,
        budget_bytes=problem.budget_bytes,
        solver="test",
    )
    for candidate_plan in (plan, everything_dram):
        expected = True
        for point in problem.capacity_checkpoints():
            used = problem.pinned_bytes + sum(
                c.tensor.size_bytes
                for c in problem.candidates
                if problem.occupies_dram(c, candidate_plan.placements[c.tensor].mode, point)
            )
            expected = expected and used <= problem.budget_bytes
        assert problem.is_feasible(candidate_plan) == expected
    assert not problem.is_feasible(everything_dram)

"""Tests for the AutoTM placement problem, ILP, and greedy solvers."""

import pytest

from repro.autotm import (
    PlacementMode,
    PlacementProblem,
    solve_greedy,
    solve_ilp,
)
from repro.config import default_platform
from repro.errors import ConfigurationError, SolverError
from repro.nn import build_training_graph
from repro.nn.ops import GraphBuilder
from repro.units import MiB


@pytest.fixture(scope="module")
def platform():
    return default_platform(4096)


def training_graph(layers=4, channels=8, size=32):
    b = GraphBuilder("t", batch=1, weight_scale=1024)
    x = b.input(3, size, size)
    for _ in range(layers):
        x = b.conv_bn_relu(x, channels, kernel=3)
    y = b.matmul(x, 10)
    b.softmax_loss(y)
    return build_training_graph(b.graph)


def build_problem(platform, budget_fraction, **kwargs):
    training = training_graph()
    budget = int(platform.socket.dram_capacity * budget_fraction)
    return PlacementProblem.build(training, platform, budget, **kwargs)


class TestProblemConstruction:
    def test_candidates_have_costs(self, platform):
        problem = build_problem(platform, 1.0)
        assert problem.candidates
        for candidate in problem.candidates:
            assert candidate.nvram_cost > 0

    def test_stash_eligibility_requires_forward_to_backward_gap(self, platform):
        problem = build_problem(platform, 1.0, min_stash_gap=4)
        eligible = [c for c in problem.candidates if c.stash_eligible]
        assert eligible, "saved activations should be stash-eligible"
        for candidate in eligible:
            assert candidate.last_forward_use < candidate.first_backward_use

    def test_small_tensors_pinned(self, platform):
        generous = build_problem(platform, 1.0, min_candidate_bytes=1)
        filtered = build_problem(platform, 1.0, min_candidate_bytes=MiB)
        assert len(filtered.candidates) < len(generous.candidates)
        assert filtered.pinned_bytes > generous.pinned_bytes

    def test_checkpoints_cover_schedule(self, platform):
        problem = build_problem(platform, 1.0, capacity_stride=7)
        points = problem.capacity_checkpoints()
        assert points[0] == 0
        assert points[-1] == problem.num_ops - 1

    def test_rejects_zero_budget(self, platform):
        training = training_graph()
        with pytest.raises(ConfigurationError):
            PlacementProblem.build(training, platform, 0)


class TestSolvers:
    @pytest.mark.parametrize("solve", [solve_ilp, solve_greedy])
    def test_all_dram_when_budget_ample(self, platform, solve):
        problem = build_problem(platform, 100.0)
        plan = solve(problem)
        assert plan.count(PlacementMode.DRAM) == len(problem.candidates)
        assert plan.objective_seconds == pytest.approx(0.0)

    @pytest.mark.parametrize("solve", [solve_ilp, solve_greedy])
    def test_tight_budget_demotes_and_stays_feasible(self, platform, solve):
        problem = build_problem(platform, 0.0004, capacity_stride=1)
        plan = solve(problem)
        assert problem.is_feasible(plan)
        demoted = plan.count(PlacementMode.NVRAM) + plan.count(PlacementMode.STASH)
        assert demoted > 0

    def test_ilp_no_worse_than_greedy(self, platform):
        problem = build_problem(platform, 0.0004, capacity_stride=1)
        ilp = solve_ilp(problem)
        greedy = solve_greedy(problem)
        assert ilp.objective_seconds <= greedy.objective_seconds + 1e-9

    def test_stash_preferred_for_long_gaps(self, platform):
        # Budget tight enough to demote, loose enough that stash
        # endpoints still fit: stashing beats full NVRAM residency.
        problem = build_problem(platform, 0.003, capacity_stride=1)
        plan = solve_ilp(problem)
        assert plan.count(PlacementMode.STASH) > 0

    def test_solver_name_recorded(self, platform):
        problem = build_problem(platform, 1.0)
        assert solve_ilp(problem).solver == "ilp"
        assert solve_greedy(problem).solver == "greedy"

    def test_evaluate_matches_objective(self, platform):
        problem = build_problem(platform, 0.0004, capacity_stride=1)
        plan = solve_ilp(problem)
        assert problem.evaluate(plan) == pytest.approx(plan.objective_seconds, rel=1e-6)

    def test_stash_placement_records_boundaries(self, platform):
        problem = build_problem(platform, 0.0004, capacity_stride=1)
        plan = solve_ilp(problem)
        for placement in plan.placements.values():
            if placement.mode is PlacementMode.STASH:
                assert placement.stash_after is not None
                assert placement.restore_before is not None
                assert placement.stash_after < placement.restore_before


class TestOccupancy:
    def test_stash_frees_dram_across_gap(self, platform):
        problem = build_problem(platform, 1.0, min_stash_gap=2)
        candidate = next(c for c in problem.candidates if c.stash_eligible)
        middle = (candidate.last_forward_use + candidate.first_backward_use) // 2
        assert problem.occupies_dram(candidate, PlacementMode.DRAM, middle)
        assert not problem.occupies_dram(candidate, PlacementMode.STASH, middle)
        assert problem.occupies_dram(
            candidate, PlacementMode.STASH, candidate.last_forward_use
        )

    def test_nvram_never_occupies(self, platform):
        problem = build_problem(platform, 1.0)
        candidate = problem.candidates[0]
        for point in problem.capacity_checkpoints():
            assert not problem.occupies_dram(candidate, PlacementMode.NVRAM, point)

    def test_dead_tensor_never_occupies(self, platform):
        problem = build_problem(platform, 1.0)
        candidate = problem.candidates[0]
        after_death = candidate.life.end + 1
        if after_death < problem.num_ops:
            assert not problem.occupies_dram(
                candidate, PlacementMode.DRAM, after_death
            )


class TestDegenerateProblems:
    def test_zero_capacity_stride_rejected(self, platform):
        with pytest.raises(ConfigurationError, match="capacity_stride"):
            build_problem(platform, 1.0, capacity_stride=0)

    def test_empty_schedule_has_no_checkpoints(self):
        problem = PlacementProblem(
            training=None, budget_bytes=1, candidates=[], pinned_bytes=0, num_ops=0
        )
        assert problem.capacity_checkpoints() == []

    @pytest.mark.parametrize("solve", [solve_ilp, solve_greedy])
    def test_empty_schedule_solves_to_empty_plan(self, solve):
        problem = PlacementProblem(
            training=None, budget_bytes=1, candidates=[], pinned_bytes=0, num_ops=0
        )
        plan = solve(problem)
        assert plan.placements == {}
        assert problem.is_feasible(plan)

    @pytest.mark.parametrize("solve", [solve_ilp, solve_greedy])
    def test_no_candidates_solves_to_empty_plan(self, platform, solve):
        problem = build_problem(platform, 1.0, min_candidate_bytes=1 << 60)
        assert not problem.candidates and problem.num_ops > 0
        plan = solve(problem)
        assert plan.placements == {}
        assert plan.objective_seconds == 0.0

"""Tests for the protection planner."""

import pytest

from repro.core.planner import (
    PlanPoint,
    ProtectionPlanner,
    ProtectionRequirement,
)

SIZES = [1e9, 5e9, 2.5e10, 1.25e11]
ERRORS = [4e-3, 5e-4, 6e-5, 1e-7]
S = 6e11


@pytest.fixture
def planner():
    return ProtectionPlanner(16, 0.01, SIZES, ERRORS, S)


class TestRequirement:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProtectionRequirement(0.0)
        with pytest.raises(ValueError):
            ProtectionRequirement(1e-3, max_blackout_probability=0.0)


class TestFrontier:
    def test_frontier_ordered_and_feasible(self, planner):
        pts = planner.frontier()
        assert len(pts) >= 3
        omegas = [p.omega for p in pts]
        assert omegas == sorted(omegas)
        for pt in pts:
            assert pt.solution.overhead <= pt.omega + 1e-9

    def test_quality_improves_with_budget(self, planner):
        pts = planner.frontier()
        errors = [p.solution.expected_error for p in pts]
        assert errors[-1] <= errors[0] * (1 + 1e-9)
        blackout = [p.blackout_probability for p in pts]
        assert blackout[-1] <= blackout[0]

    def test_infeasible_budgets_skipped(self, planner):
        pts = planner.frontier()  # 0.02 cannot hold the m=[4..1] ladder
        assert [p.omega for p in pts] == [0.02 * 2**i for i in range(1, 7)]


class TestRecommend:
    def test_recommend_cheapest(self, planner):
        req = ProtectionRequirement(max_expected_error=1e-5)
        pt = planner.recommend(req)
        assert pt.solution.expected_error <= 1e-5
        # nothing cheaper on the frontier also qualifies
        for other in planner.frontier():
            if other.solution.expected_error <= 1e-5:
                assert pt.solution.overhead <= other.solution.overhead + 1e-12

    def test_blackout_constraint_binds(self, planner):
        loose = planner.recommend(ProtectionRequirement(1e-2))
        strict = planner.recommend(
            ProtectionRequirement(1e-2, max_blackout_probability=1e-12)
        )
        assert strict.blackout_probability <= 1e-12
        assert strict.solution.overhead >= loose.solution.overhead

    def test_unreachable_requirement(self, planner):
        with pytest.raises(ValueError):
            planner.recommend(ProtectionRequirement(1e-30))

    def test_tighter_requirement_never_cheaper(self, planner):
        a = planner.recommend(ProtectionRequirement(1e-3))
        b = planner.recommend(ProtectionRequirement(1e-6))
        assert b.solution.overhead >= a.solution.overhead - 1e-12

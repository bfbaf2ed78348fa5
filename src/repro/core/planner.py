"""Protection planning: turn campaign requirements into configurations.

The FT optimiser answers "best accuracy under a storage budget".  Real
campaigns start from the other end: "we need expected error below E and
blackout probability below B — what is the cheapest configuration?"
The planner inverts the models: it sweeps the overhead budget, solves
the FT problem at each point, and returns the frontier plus the cheapest
configuration meeting the requirements.
"""

from __future__ import annotations

from dataclasses import dataclass

from .availability import prob_more_than_k_failures
from .ft_optimizer import FTProblem, FTSolution, heuristic

__all__ = ["ProtectionRequirement", "PlanPoint", "ProtectionPlanner"]


@dataclass(frozen=True)
class ProtectionRequirement:
    """What the campaign needs from its stored data."""

    max_expected_error: float
    max_blackout_probability: float = 1.0

    def __post_init__(self) -> None:
        if self.max_expected_error <= 0:
            raise ValueError("max_expected_error must be positive")
        if not 0 < self.max_blackout_probability <= 1:
            raise ValueError("max_blackout_probability must be in (0, 1]")


@dataclass(frozen=True)
class PlanPoint:
    """One point of the overhead-vs-quality frontier."""

    omega: float
    solution: FTSolution
    blackout_probability: float

    @property
    def meets(self) -> bool:
        return False  # overwritten per requirement in evaluate()


class ProtectionPlanner:
    """Sweeps overhead budgets and recommends the cheapest config.

    Parameters
    ----------
    n, p:
        Cluster size and per-system outage probability.
    sizes, errors, original_size:
        The object's refactoring profile (paper-scale bytes).
    """

    def __init__(
        self,
        n: int,
        p: float,
        sizes: list[float],
        errors: list[float],
        original_size: float,
    ) -> None:
        self.n = n
        self.p = p
        self.sizes = tuple(float(s) for s in sizes)
        self.errors = tuple(float(e) for e in errors)
        self.original_size = float(original_size)

    def frontier(self) -> list[PlanPoint]:
        """Solve the FT problem across overhead budgets 0.02 .. 1.28
        (doubling).

        Infeasible budgets are skipped.  Points are returned in
        ascending omega order.
        """
        points = []
        for omega in [0.02 * 2**i for i in range(7)]:
            problem = FTProblem(
                n=self.n, p=self.p, sizes=self.sizes, errors=self.errors,
                original_size=self.original_size, omega=omega,
            )
            try:
                sol = heuristic(problem)
            except ValueError:
                continue
            blackout = prob_more_than_k_failures(self.n, sol.ms[0], self.p)
            points.append(PlanPoint(omega, sol, blackout))
        return points

    def recommend(self, requirement: ProtectionRequirement) -> PlanPoint:
        """Cheapest frontier point meeting the requirement.

        "Cheapest" means lowest achieved overhead (not budget).  Raises
        :class:`ValueError` when nothing on the frontier qualifies —
        callers should then relax the targets or refactor with more
        accuracy headroom.
        """
        candidates = [
            pt
            for pt in self.frontier()
            if pt.solution.expected_error <= requirement.max_expected_error
            and pt.blackout_probability <= requirement.max_blackout_probability
        ]
        if not candidates:
            raise ValueError(
                "no configuration meets the requirement within the sweep; "
                "relax the targets"
            )
        return min(candidates, key=lambda pt: pt.solution.overhead)

"""Fault-tolerance configuration optimization (§3.2, Algorithm 1).

Finds the per-level parity counts ``[m_1, ..., m_l]`` minimising the
expected relative L-infinity error (Eq. 5) subject to the storage
overhead budget (Eq. 6) and the ordering constraint
``n > m_1 > ... > m_l >= 1``.

Mathematically every parity increment strictly lowers the expected error
(by ``(e_j - e_{j-1}) * P(N = m_j + 1) < 0``), but at p = 0.01 the
improvements shrink below double precision within a few increments, so
the objective landscape is numerically flat near the optimum and many
configurations tie.  Both solvers therefore optimise
``(expected error, storage overhead)`` lexicographically — among the
minimal-error configurations, prefer the one wasting the least storage —
which makes the optimum essentially unique and is the comparison Table 3
implies when it reports that the heuristic finds "the same optimal
configurations" as brute force.

Two solvers:

* :func:`brute_force` enumerates every strictly decreasing configuration
  (O(U^4) candidates for the four-level case, Eq. 8);
* :func:`heuristic` implements the paper's Algorithm 1 idea: start from
  the minimal-overhead ladder derived from the Eq. 9 initialiser, then
  incrementally add parity level by level while the budget allows —
  realised here as best-improvement greedy (take the increment with the
  largest error reduction per pass) followed by a pruning pass that
  removes increments whose contribution is below numerical resolution.
  O(U * l^2) model evaluations versus the brute force's O(U^l).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .availability import refactored_storage_overhead
from .heterogeneous import expected_error_from_pmf, poisson_binomial_pmf

__all__ = [
    "FTProblem",
    "FTSolution",
    "brute_force",
    "heuristic",
    "initial_configuration",
    "repair_configuration",
    "warm_start",
]


@dataclass(frozen=True)
class FTProblem:
    """One instance of the fault-tolerance configuration problem.

    Attributes
    ----------
    n:
        Number of geo-distributed storage systems.
    p:
        Per-system outage probability.
    sizes:
        Refactored level sizes s_1 < ... < s_l (bytes).
    errors:
        Reconstruction errors e_1 > ... > e_l.
    original_size:
        Size S of the original data object (bytes).
    omega:
        Storage-overhead budget (Eq. 6 threshold).
    """

    n: int
    p: "float | tuple[float, ...]"
    sizes: tuple[float, ...]
    errors: tuple[float, ...]
    original_size: float
    omega: float

    def __post_init__(self) -> None:
        if len(self.sizes) != len(self.errors):
            raise ValueError("sizes and errors must align")
        l = len(self.sizes)
        if l < 1:
            raise ValueError("need at least one level")
        if self.n <= l:
            raise ValueError(
                f"need n > l for a strictly decreasing config (n={self.n}, l={l})"
            )
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        # Precompute the failure-count pmf once; the heuristic's
        # incremental error deltas are O(1) lookups into it.  A scalar p
        # (the paper's binomial model) is the uniform case of a
        # per-system probability vector (the heterogeneous
        # Poisson-binomial extension).
        if np.ndim(self.p) == 0:
            ps = np.full(self.n, self.p)
        else:
            ps = tuple(float(v) for v in self.p)  # normalise for hashing
            object.__setattr__(self, "p", ps)
            if len(ps) != self.n:
                raise ValueError(
                    f"per-system probabilities must have length n={self.n}"
                )
        object.__setattr__(self, "_pmf", tuple(poisson_binomial_pmf(ps).tolist()))

    @property
    def l(self) -> int:
        return len(self.sizes)

    def overhead(self, ms: list[int]) -> float:
        return refactored_storage_overhead(
            list(self.sizes), ms, self.n, self.original_size
        )

    def objective(self, ms: list[int]) -> float:
        """Expected relative error (Eq. 5, e0 = 1) from the precomputed pmf."""
        return expected_error_from_pmf(self._pmf, ms, self.errors)

    def valid(self, ms: list[int]) -> bool:
        if len(ms) != self.l:
            return False
        if any(a <= b for a, b in zip(ms, ms[1:])):
            return False
        if ms[0] >= self.n or ms[-1] < 1:
            return False
        return self.overhead(ms) <= self.omega + 1e-12

    def error_delta(self, ms: list[int], x: int) -> float:
        """Exact change in expected error from incrementing m_x by one.

        Moving the band boundary at level x re-labels the N = m_x + 1
        failure count from error e_{x-1} (or e0 = 1 for the top level)
        down to e_x, so the delta is ``(e_x - e_above) * pmf(m_x + 1)``
        — always negative.  O(1) versus the O(n) full Eq. 5 evaluation,
        which is what makes the heuristic's Table 3 speedup possible.
        """
        e_above = 1.0 if x == 0 else self.errors[x - 1]
        return (self.errors[x] - e_above) * self._pmf[ms[x] + 1]


@dataclass
class FTSolution:
    """Solver output: the configuration, its objective, and search stats."""

    ms: list[int]
    expected_error: float
    overhead: float
    evaluations: int
    elapsed: float
    #: Which search produced the configuration: ``"cold"`` (Eq. 9
    #: initialiser) or ``"warm"`` (seeded from an incumbent config).
    origin: str = "cold"


#: Relative tolerance below which two expected errors are considered tied.
_REL_EPS = 1e-9


def _better(val: float, ovh: float, best_val: float, best_ovh: float) -> bool:
    """Lexicographic (expected error, overhead) comparison with tolerance."""
    if val < best_val * (1.0 - _REL_EPS):
        return True
    if val <= best_val * (1.0 + _REL_EPS) and ovh < best_ovh - 1e-15:
        return True
    return False


def brute_force(problem: FTProblem) -> FTSolution:
    """Enumerate all strictly decreasing configurations under the budget."""
    start = time.perf_counter()
    best_ms, best_val, best_ovh = None, float("inf"), float("inf")
    evals = 0
    # Strictly decreasing sequences == combinations of {1..n-1} sorted desc.
    for combo in itertools.combinations(range(problem.n - 1, 0, -1), problem.l):
        ms = list(combo)
        ovh = problem.overhead(ms)
        if ovh > problem.omega + 1e-12:
            continue
        val = problem.objective(ms)
        evals += 1
        if best_ms is None or _better(val, ovh, best_val, best_ovh):
            best_ms, best_val, best_ovh = ms, val, ovh
    if best_ms is None:
        raise ValueError(
            "no feasible configuration: the overhead budget is too tight "
            "even for the minimal ladder"
        )
    return FTSolution(
        best_ms, best_val, best_ovh, evals, time.perf_counter() - start
    )


def initial_configuration(problem: FTProblem) -> list[int]:
    """The Eq. 9 initialiser: the largest minimal ladder under the budget.

    Finds the maximum ``m*`` such that the tight ladder
    ``[m* + l - 1, ..., m* + 1, m*]`` satisfies the overhead constraint,
    which lets the heuristic skip every candidate with m_l < m*.
    """
    l = problem.l
    best = None
    for m_star in range(1, problem.n - l + 1):
        ladder = [m_star + l - 1 - j for j in range(l)]
        if ladder[0] >= problem.n:
            break
        if problem.overhead(ladder) <= problem.omega + 1e-12:
            best = ladder
        else:
            break  # overhead is monotone in m*, no larger m* can fit
    if best is None:
        raise ValueError(
            "no feasible configuration: even the m*=1 ladder exceeds omega"
        )
    return best


def heuristic(
    problem: FTProblem, *, initial: list[int] | None = None
) -> FTSolution:
    """Algorithm 1 realised as greedy growth + pruning from the Eq. 9 ladder.

    Phase 1 (grow): repeatedly apply the single feasible parity increment
    with the largest expected-error reduction, until every remaining
    increment's improvement is below numerical resolution or infeasible.
    Phase 2 (prune): repeatedly remove the parity increment whose removal
    keeps the expected error tied while freeing the most storage — this
    lands on the minimal-overhead representative of the optimal plateau,
    matching the brute force's lexicographic (error, overhead) objective.
    The fixpoint-termination mirrors the `M == M_prev` loop in the
    paper's pseudocode.
    """
    start = time.perf_counter()
    ms = list(initial) if initial is not None else initial_configuration(problem)
    if not problem.valid(ms):
        raise ValueError(f"initial configuration {ms} is infeasible")
    evals = 1
    cur_val = problem.objective(ms)

    # Phase 1: best-improvement growth using the O(1) analytic deltas.
    # Moves are *prefix increments* — raise m_1..m_x together, the move
    # shape of the paper's Algorithm 1 inner loop ("foreach 1 <= x <
    # l_curr: m_x += 1").  Single-level moves are the x-depth-one case;
    # deeper chains are what climb past the ordering staircase when the
    # initial ladder is tight (consecutive values block single steps).
    while True:
        best_depth, best_delta = None, 0.0
        for depth in range(problem.l):
            cand = list(ms)
            delta = 0.0
            for x in range(depth + 1):
                delta += problem.error_delta(cand, x)
                cand[x] += 1
            evals += 1
            if cand[0] >= problem.n:
                continue
            if problem.overhead(cand) > problem.omega + 1e-12:
                continue
            if delta < best_delta and -delta > _REL_EPS * cur_val:
                best_depth, best_delta = depth, delta
        if best_depth is None:
            break
        for x in range(best_depth + 1):
            ms[x] += 1
        cur_val += best_delta

    # Phase 2: prune numerically useless parity (minimise overhead among
    # ties).  Removing one parity from level x raises the error by
    # -error_delta(decremented config); accept while that stays below
    # numerical resolution, taking the largest overhead gain first.
    while True:
        best_x, best_gain = None, 0.0
        for x in range(problem.l):
            lower = ms[x + 1] + 1 if x < problem.l - 1 else 1
            if ms[x] - 1 < lower:
                continue
            cand = list(ms)
            cand[x] -= 1
            rise = -problem.error_delta(cand, x)
            evals += 1
            if rise > _REL_EPS * cur_val:
                continue  # removal would measurably hurt accuracy
            gain = problem.overhead(ms) - problem.overhead(cand)
            if gain > best_gain + 1e-15:
                best_x, best_gain = x, gain
        if best_x is None:
            break
        ms[best_x] -= 1
    return FTSolution(
        ms, problem.objective(ms), problem.overhead(ms), evals,
        time.perf_counter() - start,
    )


def repair_configuration(
    problem: FTProblem, ms: "list[int] | tuple[int, ...]"
) -> list[int] | None:
    """Project an incumbent configuration onto ``problem``'s feasible set.

    An incumbent solved under *yesterday's* parameters (different n, p,
    sizes, or omega) may violate today's ordering bounds or overhead
    budget.  This clamps each level into the strictly decreasing ladder
    ``n > m_1 > ... > m_l >= 1`` and then sheds parity — largest
    overhead relief first — until the Eq. 6 budget holds.  Returns
    ``None`` when no repair exists (wrong level count, or even the
    minimal ladder busts the budget), signalling the caller to fall back
    to a cold solve.
    """
    l = problem.l
    if len(ms) != l:
        return None
    out = [int(m) for m in ms]
    # Bottom-up clamp: m_l in [1, n-l], each higher level strictly above
    # the one below and at most n-1-x.  n > l guarantees the bounds are
    # non-empty, so this always yields a valid ladder.
    out[l - 1] = min(max(out[l - 1], 1), problem.n - l)
    for x in range(l - 2, -1, -1):
        out[x] = min(max(out[x], out[x + 1] + 1), problem.n - 1 - x)
    # Shed parity until the overhead budget holds: repeatedly decrement
    # the level whose decrement frees the most storage while keeping the
    # ladder strictly decreasing.
    while problem.overhead(out) > problem.omega + 1e-12:
        best_x, best_gain = None, 0.0
        for x in range(l):
            lower = out[x + 1] + 1 if x < l - 1 else 1
            if out[x] - 1 < lower:
                continue
            cand = list(out)
            cand[x] -= 1
            gain = problem.overhead(out) - problem.overhead(cand)
            if gain > best_gain + 1e-15:
                best_x, best_gain = x, gain
        if best_x is None:
            return None  # already the minimal ladder; budget infeasible
        out[best_x] -= 1
    return out


def warm_start(
    problem: FTProblem,
    incumbent: "list[int] | tuple[int, ...] | None",
    *,
    budget_evals: int | None = None,
) -> FTSolution:
    """Re-solve under drifted parameters, seeded from the incumbent.

    The incumbent ``(m_1, ..., m_l)`` is repaired onto the new problem's
    feasible set (see :func:`repair_configuration`) and used as the
    heuristic's starting point.  Because the grow phase only takes
    improving moves and the prune phase only removes parity whose
    contribution is below numerical resolution, the warm solution is
    never worse than the (repaired) incumbent under the drifted
    parameters — the property the control plane's reconfiguration loop
    relies on.

    ``budget_evals`` bounds the solve in *model evaluations* — the
    deterministic proxy for solve time (a wall-clock budget would make
    replay runs diverge).  When the warm solve leaves budget to spare
    (or no budget is set), a cold solve runs as well and the
    lexicographically better of the two wins; an unrepairable incumbent
    always falls back to the cold solve.
    """
    seed = repair_configuration(problem, incumbent) if incumbent is not None else None
    if seed is None:
        return heuristic(problem)
    warm = heuristic(problem, initial=seed)
    warm.origin = "warm"
    if budget_evals is not None and warm.evaluations >= budget_evals:
        return warm
    cold = heuristic(problem)
    if _better(cold.expected_error, cold.overhead,
               warm.expected_error, warm.overhead):
        cold.evaluations += warm.evaluations
        cold.elapsed += warm.elapsed
        return cold
    warm.evaluations += cold.evaluations
    warm.elapsed += cold.elapsed
    return warm

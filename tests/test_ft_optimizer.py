"""Tests for the fault-tolerance configuration optimiser (§3.2, Alg. 1)."""

import itertools

import numpy as np
import pytest

from repro.core import FTProblem, brute_force, heuristic, initial_configuration
from repro.core.ft_optimizer import _better


def make_problem(n=16, omega=0.25, l=4, ratio=5.0, p=0.01):
    sizes = tuple(1e9 * ratio**j for j in range(l))
    errors = tuple(4e-3 * 10.0 ** (-1.2 * j) for j in range(l))
    S = sum(sizes) * 4
    return FTProblem(
        n=n, p=p, sizes=sizes, errors=errors, original_size=S, omega=omega
    )


class TestProblem:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_problem(n=4)  # n <= l
        with pytest.raises(ValueError):
            make_problem(omega=0.0)
        with pytest.raises(ValueError):
            FTProblem(8, 0.01, (1.0,), (0.1, 0.2), 10.0, 0.5)

    def test_valid_config(self):
        prob = make_problem()
        assert prob.valid([4, 3, 2, 1])
        assert not prob.valid([3, 3, 2, 1])  # not strictly decreasing
        assert not prob.valid([16, 3, 2, 1])  # m1 >= n
        assert not prob.valid([4, 3, 2, 0])  # m_l < 1
        assert not prob.valid([4, 3, 2])  # wrong length

    def test_overhead_and_objective(self):
        prob = make_problem()
        ms = [4, 3, 2, 1]
        assert prob.overhead(ms) > 0
        assert 0 <= prob.objective(ms) <= 1


class TestInitializer:
    def test_tight_ladder(self):
        prob = make_problem(omega=1.0)
        ladder = initial_configuration(prob)
        l = prob.l
        assert ladder == [ladder[-1] + l - 1 - j for j in range(l)]
        assert prob.valid(ladder)

    def test_maximal(self):
        """The m*+1 ladder must violate the budget (maximality of Eq. 9)."""
        prob = make_problem(omega=0.3)
        ladder = initial_configuration(prob)
        bumped = [m + 1 for m in ladder]
        if bumped[0] < prob.n:
            assert prob.overhead(bumped) > prob.omega

    def test_infeasible_budget(self):
        prob = make_problem(omega=1e-6)
        with pytest.raises(ValueError):
            initial_configuration(prob)

    def test_ladder_error_not_beaten_by_low_ml(self):
        """Eq. 9's pruning claim, under the pure-error objective: no
        configuration with m_l < m* achieves a strictly lower expected
        error than the best configuration with m_l >= m*.  (Under the
        (error, overhead) tie-break the *reported* optimum may still have
        a smaller m_l, because parity above the numerical-resolution
        plateau gets pruned for its overhead.)"""
        import itertools

        prob = make_problem(omega=0.4)
        ladder = initial_configuration(prob)
        m_star = ladder[-1]
        best_low, best_high = float("inf"), float("inf")
        for combo in itertools.combinations(range(prob.n - 1, 0, -1), prob.l):
            ms = list(combo)
            if prob.overhead(ms) > prob.omega:
                continue
            val = prob.objective(ms)
            if ms[-1] < m_star:
                best_low = min(best_low, val)
            else:
                best_high = min(best_high, val)
        assert best_high <= best_low * (1 + 1e-9)


class TestSolvers:
    def test_brute_force_feasible(self):
        prob = make_problem()
        sol = brute_force(prob)
        assert prob.valid(sol.ms)
        assert sol.overhead <= prob.omega + 1e-9

    def test_brute_force_infeasible(self):
        with pytest.raises(ValueError):
            brute_force(make_problem(omega=1e-9))

    def test_heuristic_matches_brute_force_table3_style(self):
        """The Table 3 claim: identical optimal configurations."""
        for n, omega in [(16, 0.15), (16, 0.3), (20, 0.25), (12, 0.4),
                         (16, 0.08), (24, 0.5)]:
            prob = make_problem(n=n, omega=omega)
            bf = brute_force(prob)
            h = heuristic(prob)
            assert h.ms == bf.ms, (n, omega, h.ms, bf.ms)
            assert h.expected_error == pytest.approx(bf.expected_error, rel=1e-9)

    def test_heuristic_matches_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(8, 22))
            ratio = float(rng.uniform(2.5, 8))
            omega = float(rng.uniform(0.05, 0.6))
            try:
                prob = make_problem(n=n, omega=omega, ratio=ratio)
                bf = brute_force(prob)
                h = heuristic(prob)
            except ValueError:
                continue
            assert h.ms == bf.ms, (n, omega, ratio)

    def test_heuristic_far_fewer_evaluations(self):
        prob = make_problem(n=24, omega=0.4)
        bf = brute_force(prob)
        h = heuristic(prob)
        assert bf.evaluations / h.evaluations > 10

    def test_heuristic_respects_budget(self):
        prob = make_problem(omega=0.12)
        sol = heuristic(prob)
        assert sol.overhead <= prob.omega + 1e-9

    def test_heuristic_explicit_initial(self):
        prob = make_problem()
        sol = heuristic(prob, initial=[4, 3, 2, 1])
        assert prob.valid(sol.ms)
        with pytest.raises(ValueError):
            heuristic(prob, initial=[1, 2, 3, 4])

    def test_tighter_budget_never_better(self):
        tight = heuristic(make_problem(omega=0.05))
        loose = heuristic(make_problem(omega=0.5))
        assert loose.expected_error <= tight.expected_error * (1 + 1e-9)

    def test_two_level_problem(self):
        prob = make_problem(l=2)
        assert heuristic(prob).ms == brute_force(prob).ms

    def test_single_level_problem(self):
        prob = make_problem(l=1)
        assert heuristic(prob).ms == brute_force(prob).ms


class TestHeterogeneousProblem:
    """FTProblem with a per-system probability vector (Poisson-binomial)."""

    def _hetero(self, ps, omega=0.3):
        return FTProblem(
            n=len(ps), p=tuple(ps),
            sizes=tuple(1e9 * 5.0**j for j in range(4)),
            errors=tuple(4e-3 * 10.0 ** (-1.2 * j) for j in range(4)),
            original_size=sum(1e9 * 5.0**j for j in range(4)) * 4,
            omega=omega,
        )

    def test_uniform_vector_matches_scalar(self):
        vec = self._hetero([0.01] * 16)
        scalar = make_problem(n=16, omega=0.3)
        ms = [8, 5, 4, 2]
        assert vec.objective(ms) == pytest.approx(
            scalar.objective(ms), rel=1e-12
        )
        assert brute_force(vec).ms == brute_force(scalar).ms

    def test_heuristic_matches_brute_force_hetero(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            ps = rng.uniform(0.005, 0.08, size=16)
            prob = self._hetero(ps)
            assert heuristic(prob).ms == brute_force(prob).ms

    def test_mixed_fleet_gets_more_parity(self):
        """A fleet with unreliable facilities earns deeper protection
        than the uniform-reliable assumption chooses."""
        uniform = brute_force(self._hetero([0.0107] * 16))
        mixed = brute_force(self._hetero([0.0107] * 8 + [0.052] * 8))
        assert sum(mixed.ms) >= sum(uniform.ms)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FTProblem(
                n=16, p=(0.01,) * 8,
                sizes=(1e9, 5e9), errors=(1e-2, 1e-3),
                original_size=1e11, omega=0.3,
            )

    def test_delta_consistency(self):
        """error_delta must equal the full objective difference."""
        prob = self._hetero([0.0107] * 8 + [0.052] * 8)
        ms = [8, 5, 4, 2]
        for x in range(4):
            cand = list(ms)
            cand[x] += 1
            if x > 0 and cand[x] >= ms[x - 1]:
                continue
            delta = prob.error_delta(ms, x)
            assert prob.objective(cand) - prob.objective(ms) == pytest.approx(
                delta, rel=1e-9, abs=1e-18
            )


def reference_brute_force(problem):
    """The one-candidate-at-a-time enumeration: the reference
    implementation ``brute_force``'s vectorised pass must match float for
    float.  Returns ``(ms, expected_error, overhead, evaluations)``."""
    best_ms, best_val, best_ovh = None, float("inf"), float("inf")
    evals = 0
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
        raise ValueError("no feasible configuration")
    return best_ms, best_val, best_ovh, evals


def sweep(count=240, seed=41):
    """Seeded random problems: n in {8, 12, 16}, l = 2-5, p up to 0.2
    (scalar or per-system), level sizes growing and errors falling at
    random rates, any budget."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.choice([8, 12, 16]))
        l = int(rng.integers(2, 6))
        s0, growth = 10 ** rng.uniform(3, 9), rng.uniform(1.5, 10)
        sizes = tuple(float(s0 * growth**j) for j in range(l))
        e0 = 10 ** rng.uniform(-4, -1)
        errors = tuple(
            float(e0 * 10 ** (-rng.uniform(0.3, 2) * j)) for j in range(l)
        )
        if rng.random() < 0.5:
            p = float(rng.uniform(0.001, 0.2))
        else:
            p = tuple(float(v) for v in rng.uniform(0.001, 0.2, n))
        out.append(FTProblem(
            n=n, p=p, sizes=sizes, errors=errors,
            original_size=float(sum(sizes) * rng.uniform(1, 5)),
            omega=float(rng.uniform(0.05, 1.0)),
        ))
    return out


class TestExactSolver:
    def test_matches_reference_loop_bit_for_bit(self):
        problems = sweep()
        assert {p.n for p in problems} == {8, 12, 16}
        assert {p.l for p in problems} == {2, 3, 4, 5}
        assert {isinstance(p.p, tuple) for p in problems} == {True, False}
        solved = 0
        for prob in problems:
            try:
                ref = reference_brute_force(prob)
            except ValueError:
                with pytest.raises(ValueError):
                    brute_force(prob)
                continue
            sol = brute_force(prob)
            got = (sol.ms, sol.expected_error, sol.overhead, sol.evaluations)
            assert got == ref, prob
            solved += 1
        assert solved >= 200

    def test_heuristic_misses_the_optimum_at_elevated_p(self):
        """Algorithm 1 is not exact in general: at p = 0.1 its grow phase
        cannot reach the optimum's low m_l, and its ladder's expected
        error is ~830x the optimum's."""
        sizes = tuple(1e6 * 4.0**j for j in range(4))
        prob = FTProblem(
            n=12, p=0.1, sizes=sizes,
            errors=tuple(1e-2 * 10.0 ** (-3 * j) for j in range(4)),
            original_size=sum(sizes), omega=0.4,
        )
        h, bf = heuristic(prob), brute_force(prob)
        assert h.ms == [7, 5, 4, 3] and bf.ms == [10, 8, 5, 1]
        assert h.expected_error > 800 * bf.expected_error

"""Tests for the availability / expected-error models (Eqs. 1-6)."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    duplication_storage_overhead,
    duplication_unavailability,
    ec_storage_overhead,
    ec_unavailability,
    expected_relative_error,
    prob_more_than_k_failures,
    refactored_storage_overhead,
)


def binom_pmf(n, i, p):
    return math.comb(n, i) * p**i * (1 - p) ** (n - i)


def exact_binom_pmf(n, p):
    """P(N = i) for i = 0..n as exact rationals of the float ``p``."""
    q = Fraction(p)
    return [math.comb(n, i) * q**i * (1 - q) ** (n - i) for i in range(n + 1)]


class TestBandsAgainstExactBinomial:
    """Eq. 4 / Eq. 5 bands are pmf sums, not differences of two CDFs
    near 1: a difference lost 0.29 % of (16, 10, 8, 0.01) and all of
    (16, 8, 6, 0.001), which came out 0.0 instead of 1.14e-17."""

    BANDS = [(16, 10, 8, 0.01), (16, 8, 6, 0.001)]

    @pytest.mark.parametrize("n, mj, mnext, p", BANDS)
    def test_expected_error_band(self, n, mj, mnext, p):
        """Eq. 5 with e_1 = 1 and e_2 = 0 is P(N > m_next); its band
        (m_next, m_j] is the one a CDF difference got wrong."""
        ms, errors = [mj, mnext], [1.0, 0.0]
        pmf = exact_binom_pmf(n, p)
        exact = sum(pmf[mj + 1 :]) + sum(pmf[mnext + 1 : mj + 1])
        got = expected_relative_error(n, p, ms, errors)
        assert abs(Fraction(got) - exact) <= Fraction(n, 2**52) * exact


class TestBasicProbabilities:
    def test_tail_matches_explicit_sum(self):
        n, p = 16, 0.01
        for k in range(-1, n + 1):
            explicit = sum(binom_pmf(n, i, p) for i in range(k + 1, n + 1))
            assert prob_more_than_k_failures(n, k, p) == pytest.approx(
                explicit, abs=1e-15
            )

    def test_duplication_matches_eq1(self):
        """Eq. 1 collapses to p**m (all replica holders down)."""
        n, m, p = 8, 3, 0.05
        eq1 = sum(
            math.comb(n - m, i) * p ** (m + i) * (1 - p) ** (n - m - i)
            for i in range(n - m + 1)
        )
        assert duplication_unavailability(n, m, p) == pytest.approx(eq1)
        assert duplication_unavailability(n, m, p) == pytest.approx(p**3)

    def test_ec_matches_eq2(self):
        n, m, p = 16, 4, 0.01
        eq2 = sum(binom_pmf(n, i, p) for i in range(m + 1, n + 1))
        assert ec_unavailability(n, m, p) == pytest.approx(eq2, rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            prob_more_than_k_failures(0, 1, 0.1)
        with pytest.raises(ValueError):
            duplication_unavailability(4, 0, 0.5)
        with pytest.raises(ValueError):
            duplication_unavailability(4, 5, 0.5)
        with pytest.raises(ValueError):
            ec_unavailability(4, 4, 0.5)

    @given(
        st.integers(min_value=2, max_value=32),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=50)
    def test_ec_unavailability_in_unit_interval(self, n, p):
        val = ec_unavailability(n, 1, p)
        assert 0.0 <= val <= 1.0

    def test_more_parity_more_available(self):
        n, p = 16, 0.01
        vals = [ec_unavailability(n, m, p) for m in range(0, n)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestExpectedError:
    def test_bands_partition_probability(self):
        """The Eq. 5 coefficients of each error value sum to 1."""
        n, p = 16, 0.01
        ms = [4, 3, 2, 1]
        total = prob_more_than_k_failures(n, ms[0], p)
        total += sum(  # Eq. 4: P(m_{j+1} < N <= m_j)
            prob_more_than_k_failures(n, ms[j + 1], p)
            - prob_more_than_k_failures(n, ms[j], p)
            for j in range(len(ms) - 1)
        )
        total += 1 - prob_more_than_k_failures(n, ms[-1], p)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_matches_explicit_eq5(self):
        n, p = 16, 0.01
        ms = [4, 3, 2, 1]
        errors = [4e-3, 5e-4, 6e-5, 1e-7]
        explicit = sum(binom_pmf(n, i, p) for i in range(ms[0] + 1, n + 1))
        explicit += errors[-1] * sum(binom_pmf(n, i, p) for i in range(ms[-1] + 1))
        for j in range(3):
            explicit += errors[j] * sum(
                binom_pmf(n, i, p) for i in range(ms[j + 1] + 1, ms[j] + 1)
            )
        got = expected_relative_error(n, p, ms, errors)
        assert got == pytest.approx(explicit, rel=1e-10)

    def test_fig2_ordering(self):
        """The Fig. 2 comparison: RF+EC with m=[4,3,2,1] beats DP(2
        replicas) and EC(3 parity) on expected error."""
        n, p = 16, 0.01
        rfec = expected_relative_error(
            n, p, [4, 3, 2, 1], [4e-3, 5e-4, 6e-5, 1e-7]
        )
        dp = duplication_unavailability(n, 2, p)
        ec = ec_unavailability(n, 3, p)
        assert rfec < dp
        assert rfec < ec

    def test_monotone_in_parity(self):
        n, p = 16, 0.01
        errors = [1e-2, 1e-3, 1e-4, 1e-6]
        weaker = expected_relative_error(n, p, [4, 3, 2, 1], errors)
        stronger = expected_relative_error(n, p, [8, 5, 4, 2], errors)
        assert stronger < weaker

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_relative_error(8, 0.01, [3, 3], [0.1, 0.01])
        with pytest.raises(ValueError):
            expected_relative_error(8, 0.01, [8, 2], [0.1, 0.01])
        with pytest.raises(ValueError):
            expected_relative_error(8, 0.01, [2, 0], [0.1, 0.01])
        with pytest.raises(ValueError):
            expected_relative_error(8, 0.01, [2], [0.1, 0.01])
        with pytest.raises(ValueError):
            expected_relative_error(8, 0.01, [], [])


class TestOverheads:
    def test_duplication(self):
        assert duplication_storage_overhead(3) == 2.0
        with pytest.raises(ValueError):
            duplication_storage_overhead(0)

    def test_ec(self):
        assert ec_storage_overhead(4, 2) == 0.5
        assert ec_storage_overhead(12, 4) == pytest.approx(1 / 3)
        with pytest.raises(ValueError):
            ec_storage_overhead(0, 1)

    def test_refactored_matches_eq6(self):
        sizes = [100.0, 1000.0]
        ms = [3, 1]
        n, S = 8, 10_000.0
        expected = (3 / 5 * 100 + 1 / 7 * 1000) / S
        got = refactored_storage_overhead(sizes, ms, n, S)
        assert got == pytest.approx(expected)

    def test_refactored_validation(self):
        with pytest.raises(ValueError):
            refactored_storage_overhead([1.0], [1, 2], 8, 10.0)
        with pytest.raises(ValueError):
            refactored_storage_overhead([1.0], [8], 8, 10.0)
        with pytest.raises(ValueError):
            refactored_storage_overhead([1.0], [1], 8, 0.0)

    def test_headline_storage_claim(self):
        """RAPIDS headline: same-or-better availability at ~7.5x lower
        storage overhead than plain EC. With the paper's example numbers
        the RF+EC overhead must come out far below EC(m=3)'s 3/13."""
        S = 16e12
        # realistic refactored sizes: total ~ S/3, geometric ratio 4
        sizes = [S / 3 * 4**j / sum(4**i for i in range(4)) for j in range(4)]
        ovh_rfec = refactored_storage_overhead(sizes, [4, 3, 2, 1], 16, S)
        ovh_ec = ec_storage_overhead(13, 3)
        assert ovh_ec / ovh_rfec > 4.0

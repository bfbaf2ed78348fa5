"""Tests for the demand-aware tiering baseline (Zebra-like)."""

import pytest

from repro.core.related import DemandAwareTiering, TierAssignment

SIZES = [1e12, 1e12, 1e12, 1e12]
DEMANDS = [100.0, 10.0, 1.0, 1.0]


@pytest.fixture
def scheme():
    return DemandAwareTiering(16, 0.01)


class TestAssignment:
    def test_validation(self, scheme):
        with pytest.raises(ValueError):
            DemandAwareTiering(2, 0.01)
        with pytest.raises(ValueError):
            DemandAwareTiering(16, 0.0)
        with pytest.raises(ValueError):
            scheme.assign([1.0], [1.0, 2.0], 0.5)
        with pytest.raises(ValueError):
            scheme.assign([0.0], [1.0], 0.5)
        with pytest.raises(ValueError):
            scheme.assign(SIZES, DEMANDS, 0.0)
        with pytest.raises(ValueError):
            scheme.assign(SIZES, DEMANDS, 1e-6)  # below one parity each

    def test_budget_respected(self, scheme):
        for omega in (0.1, 0.25, 0.5):
            ta = scheme.assign(SIZES, DEMANDS, omega)
            assert ta.storage_overhead() <= omega + 1e-9

    def test_hot_objects_get_more_parity(self, scheme):
        ta = scheme.assign(SIZES, DEMANDS, 0.3)
        assert ta.ms[0] >= ta.ms[1] >= ta.ms[2]
        assert ta.ms[0] > ta.ms[3]

    def test_equal_demand_equal_parity(self, scheme):
        ta = scheme.assign(SIZES, [1.0] * 4, 0.3)
        assert max(ta.ms) - min(ta.ms) <= 1

    def test_more_budget_never_hurts(self, scheme):
        lo = scheme.assign(SIZES, DEMANDS, 0.15)
        hi = scheme.assign(SIZES, DEMANDS, 0.45)
        assert hi.weighted_expected_error(0.01) <= lo.weighted_expected_error(
            0.01
        ) * (1 + 1e-9)


class TestWeightedError:
    def test_matches_hand_calc(self):
        from repro.core import ec_unavailability

        ta = TierAssignment((1.0, 1.0), (3.0, 1.0), (4, 2), 16)
        expected = (
            3 * ec_unavailability(16, 4, 0.01)
            + 1 * ec_unavailability(16, 2, 0.01)
        ) / 4
        assert ta.weighted_expected_error(0.01) == pytest.approx(expected)

    def test_zero_demand_rejected(self):
        ta = TierAssignment((1.0,), (0.0,), (2,), 16)
        with pytest.raises(ValueError):
            ta.weighted_expected_error(0.01)

    def test_demand_drift_degrades(self, scheme):
        """The paper's critique: when actual demand inverts the predicted
        ranking, the demand-tuned assignment performs worse than it
        planned for."""
        ta = scheme.assign(SIZES, DEMANDS, 0.25)
        planned = ta.weighted_expected_error(0.01)
        drifted = ta.weighted_expected_error(0.01, demands=DEMANDS[::-1])
        assert drifted > planned * 5

"""Tests for the DP and plain-EC baseline methods."""

import pytest

from repro.core import DuplicationMethod, PlainECMethod
from repro.transfer import paper_bandwidth_profile

BW = paper_bandwidth_profile(16)


class TestDuplication:
    def test_validation(self):
        with pytest.raises(ValueError):
            DuplicationMethod(1)

    def test_prepare_accounting(self):
        dp = DuplicationMethod(3)
        rep = dp.prepare(1e12, BW)
        assert rep.storage_overhead == 2.0
        assert rep.network_bytes == 2e12
        assert rep.distribution_latency > 0
        assert 0 < rep.expected_error < 1

    def test_expected_error_is_p_to_m(self):
        dp = DuplicationMethod(2)
        assert dp.expected_error(16, 0.01) == pytest.approx(1e-4)

    def test_restore_uses_fastest_surviving(self):
        dp = DuplicationMethod(3)
        rep = dp.restore(1e12, BW)
        fastest = BW.max()
        assert rep.gathering_latency == pytest.approx(1e12 / fastest)

class TestPlainEC:
    def test_validation(self):
        with pytest.raises(ValueError):
            PlainECMethod(0, 1)

    def test_prepare_accounting(self):
        ec = PlainECMethod(12, 4)
        rep = ec.prepare(12e12, BW)
        assert rep.storage_overhead == pytest.approx(1 / 3)
        assert rep.network_bytes == pytest.approx(16e12)

    def test_overhead_beats_duplication(self):
        assert PlainECMethod(12, 4).prepare(1e12, BW).storage_overhead < (
            DuplicationMethod(3).prepare(1e12, BW).storage_overhead
        )

    def test_comparable_error_configs(self):
        """Table 4's fairness setup: DP(3 replicas) and EC(12+4) reach
        comparable expected errors at p=0.01."""
        dp = DuplicationMethod(3).expected_error(16, 0.01)
        ec = PlainECMethod(12, 4).expected_error(16, 0.01)
        assert 0.01 < dp / ec < 100

"""Tests for the WAN transfer substrate."""

import numpy as np
import pytest

from repro.transfer import (
    GB,
    MB,
    FairShareSimulator,
    TransferRequest,
    duplication_distribution,
    ec_distribution,
    estimate_bandwidths,
    generate_transfer_logs,
    paper_bandwidth_profile,
    phase_latency,
    refactored_distribution,
    static_transfer_times,
)


class TestLogs:
    def test_generate_deterministic(self):
        r1, m1 = generate_transfer_logs(seed=5)
        r2, m2 = generate_transfer_logs(seed=5)
        assert m1 == m2
        assert [(r.endpoint, r.nbytes) for r in r1[:10]] == [
            (r.endpoint, r.nbytes) for r in r2[:10]
        ]

    def test_estimator_recovers_means(self):
        records, true_means = generate_transfer_logs(
            transfers_per_endpoint=2000, seed=3
        )
        est = estimate_bandwidths(records)
        for ep, mean in true_means.items():
            assert abs(est[ep] - mean) / mean < 0.05

    def test_estimator_empty(self):
        with pytest.raises(ValueError):
            estimate_bandwidths([])

    def test_paper_profile_range(self):
        bw = paper_bandwidth_profile(16)
        assert bw.shape == (16,)
        # §5.1.2: 400 MB/s to more than 3 GB/s (estimates may scatter a bit)
        assert bw.min() > 300 * MB
        assert bw.max() < 4 * GB

    def test_paper_profile_descending_ids(self):
        bw = paper_bandwidth_profile(16)
        # latent means are sorted; estimates approximately follow
        assert bw[0] > bw[-1]

    def test_generate_validation(self):
        with pytest.raises(ValueError):
            generate_transfer_logs(num_endpoints=0)


class TestStaticModel:
    def test_single_request(self):
        res = static_transfer_times(
            [TransferRequest(0, 100.0)], np.array([10.0])
        )
        assert res.finish_times == [10.0]
        assert res.makespan == 10.0

    def test_contention_splits_bandwidth(self):
        reqs = [TransferRequest(0, 100.0), TransferRequest(0, 100.0)]
        res = static_transfer_times(reqs, np.array([10.0]))
        # each request gets 5 B/s under equal share
        assert res.finish_times == [20.0, 20.0]

    def test_independent_systems(self):
        reqs = [TransferRequest(0, 100.0), TransferRequest(1, 100.0)]
        res = static_transfer_times(reqs, np.array([10.0, 20.0]))
        assert res.finish_times == [10.0, 5.0]
        assert res.makespan == 10.0

    def test_empty(self):
        res = static_transfer_times([], np.array([1.0]))
        assert res.makespan == 0.0


class TestFairShareSimulator:
    def test_matches_static_for_equal_sizes(self):
        """With equal sizes on one endpoint, all finish together and the
        static model is exact."""
        reqs = [TransferRequest(0, 50.0)] * 4
        sim = FairShareSimulator(np.array([10.0]))
        res = sim.run(reqs)
        stat = static_transfer_times(reqs, np.array([10.0]))
        np.testing.assert_allclose(res.finish_times, stat.finish_times)

    def test_redistribution_speeds_up_survivor(self):
        """When the small request finishes, the big one gets full bandwidth,
        so it beats the static estimate."""
        reqs = [TransferRequest(0, 10.0), TransferRequest(0, 100.0)]
        sim = FairShareSimulator(np.array([10.0]))
        res = sim.run(reqs)
        # small: 10 / 5 = 2s. big: 2s at 5 B/s -> 90 left at 10 B/s -> 11s.
        np.testing.assert_allclose(res.finish_times, [2.0, 11.0])
        stat = static_transfer_times(reqs, np.array([10.0]))
        assert res.finish_times[1] < stat.finish_times[1]

    def test_conservation(self):
        """Makespan is never below total-bytes / bandwidth (work conservation)."""
        rng = np.random.default_rng(0)
        reqs = [TransferRequest(0, float(s)) for s in rng.uniform(1, 100, 20)]
        sim = FairShareSimulator(np.array([7.0]))
        res = sim.run(reqs)
        np.testing.assert_allclose(res.makespan, sum(r.nbytes for r in reqs) / 7.0)

    def test_zero_byte_request(self):
        res = FairShareSimulator(np.array([1.0])).run([TransferRequest(0, 0.0)])
        assert res.finish_times == [0.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            FairShareSimulator(np.array([0.0]))
        sim = FairShareSimulator(np.array([1.0]))
        with pytest.raises(ValueError):
            sim.run([TransferRequest(5, 1.0)])
        with pytest.raises(ValueError):
            sim.run([TransferRequest(0, -1.0)])


class TestSchedulers:
    bw = np.array([3e9, 2e9, 1e9, 0.5e9])

    def test_duplication_targets_fastest(self):
        reqs = duplication_distribution(1e12, 2, self.bw)
        assert [r.system_id for r in reqs] == [0, 1]
        assert all(r.nbytes == 1e12 for r in reqs)
        with pytest.raises(ValueError):
            duplication_distribution(1e12, 0, self.bw)
        with pytest.raises(ValueError):
            duplication_distribution(1e12, 5, self.bw)

    def test_ec_distribution(self):
        reqs = ec_distribution(1e12, k=3, m=1, bandwidths=self.bw)
        assert len(reqs) == 4
        assert all(r.nbytes == pytest.approx(1e12 / 3) for r in reqs)
        with pytest.raises(ValueError):
            ec_distribution(1e12, 4, 1, self.bw)

    def test_refactored_distribution_aggregated(self):
        """Default: one bundled transfer per destination (Globus batches
        all of an endpoint's files into one task)."""
        reqs = refactored_distribution([90.0, 900.0], [1, 0], 4, self.bw)
        assert len(reqs) == 4
        assert all(r.nbytes == pytest.approx(30.0 + 225.0) for r in reqs)
        assert sorted(r.system_id for r in reqs) == [0, 1, 2, 3]

    def test_refactored_distribution_per_fragment(self):
        reqs = refactored_distribution(
            [90.0, 900.0], [1, 0], 4, self.bw, aggregate=False
        )
        assert len(reqs) == 8
        sizes = sorted({r.nbytes for r in reqs})
        assert sizes == [30.0, 225.0]

    def test_refactored_distribution_validation(self):
        with pytest.raises(ValueError):
            refactored_distribution([1.0], [0, 1], 4, self.bw)
        with pytest.raises(ValueError):
            refactored_distribution([1.0], [4], 4, self.bw)

    def test_phase_latency_models_agree_on_singletons(self):
        reqs = [TransferRequest(i, 100.0) for i in range(4)]
        stat = phase_latency(reqs, self.bw, model="static")
        fair = phase_latency(reqs, self.bw, model="fair-share")
        np.testing.assert_allclose(stat.finish_times, fair.finish_times)
        with pytest.raises(ValueError):
            phase_latency(reqs, self.bw, model="bogus")

    def test_ec_beats_duplication_latency(self):
        """The Fig. 3 ordering at the paper's scale: with 16 systems and a
        (12, 4) code, fragment transfers beat shipping a full replica even
        to the fastest endpoint."""
        S = 16e12
        bw = paper_bandwidth_profile(16)
        dp = phase_latency(duplication_distribution(S, 1, bw), bw)
        ec = phase_latency(ec_distribution(S, 12, 4, bw), bw)
        assert ec.makespan < dp.makespan

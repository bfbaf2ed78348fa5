"""Tests for capacity-aware fragment placement and rebalancing."""

import numpy as np
import pytest

from repro.storage import (
    CapacityError,
    CapacityTracker,
    StorageCluster,
    StoredFragment,
    apply_moves,
    plan_placement,
    rebalance_moves,
)


@pytest.fixture
def tracker():
    cluster = StorageCluster([1e9] * 6)
    caps = np.array([1000.0, 1000.0, 500.0, 500.0, 200.0, 200.0])
    return CapacityTracker(cluster, caps)


class TestTracker:
    def test_validation(self):
        cluster = StorageCluster([1e9] * 3)
        with pytest.raises(ValueError):
            CapacityTracker(cluster, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            CapacityTracker(cluster, np.array([1.0, 0.0, 2.0]))

    def test_accounting(self, tracker):
        assert np.all(tracker.used() == 0)
        tracker.cluster[0].put(StoredFragment("o", 0, 0, 300, None))
        assert tracker.used()[0] == 300
        assert tracker.free()[0] == 700
        assert tracker.utilization()[0] == pytest.approx(0.3)
        assert tracker.fits(0, 700)
        assert not tracker.fits(0, 701)


class TestPlanPlacement:
    def test_prefers_low_utilisation(self, tracker):
        tracker.cluster[0].put(StoredFragment("o", 0, 0, 900, None))
        chosen = plan_placement(tracker, 100.0, 4)
        assert 0 not in chosen
        assert len(set(chosen)) == 4

    def test_balanced_fill(self, tracker):
        chosen = plan_placement(tracker, 150.0, 6)
        assert sorted(chosen) == list(range(6))

    def test_capacity_exhaustion(self, tracker):
        with pytest.raises(CapacityError):
            plan_placement(tracker, 300.0, 6)  # systems 4/5 hold only 200

    def test_too_many_fragments(self, tracker):
        with pytest.raises(CapacityError):
            plan_placement(tracker, 1.0, 7)

    def test_skips_failed_systems(self, tracker):
        tracker.cluster.fail([0, 1])
        chosen = plan_placement(tracker, 100.0, 4)
        assert not {0, 1} & set(chosen)

    def test_validation(self, tracker):
        with pytest.raises(ValueError):
            plan_placement(tracker, 1.0, 0)

    def test_respects_running_commitments(self, tracker):
        """Within one call, earlier fragments count against later picks."""
        chosen = plan_placement(tracker, 190.0, 6)
        # smallest systems (200 capacity) can only take one fragment each
        assert chosen.count(4) <= 1 and chosen.count(5) <= 1

    def test_exclude(self, tracker):
        chosen = plan_placement(tracker, 100.0, 3, exclude={0, 1})
        assert not {0, 1} & set(chosen)
        with pytest.raises(CapacityError):
            plan_placement(tracker, 100.0, 5, exclude={0, 1})


class TestCommitments:
    def test_pending_counts_as_used(self, tracker):
        tracker.commit(4, 150.0)
        assert tracker.used()[4] == 150.0
        assert not tracker.fits(4, 100.0)  # 200 cap - 150 pending
        assert 4 not in plan_placement(tracker, 100.0, 5)
        tracker.settle(4, 150.0)
        assert tracker.used()[4] == 0.0

    def test_committed_plan_visible_to_next_plan(self, tracker):
        first = plan_placement(tracker, 200.0, 2, commit=True)
        assert set(first) == {0, 1}  # largest systems win a cold start
        # With the reservations registered, the next plan must go
        # elsewhere; without them it would pick 0 and 1 again.
        second = plan_placement(tracker, 100.0, 2)
        assert set(second) == {2, 3}

    def test_clear_commitments(self, tracker):
        plan_placement(tracker, 100.0, 6, commit=True)
        assert tracker.pending.sum() == pytest.approx(600.0)
        tracker.clear_commitments()
        assert tracker.pending.sum() == 0.0


class TestRebalance:
    def test_moves_shrink_spread(self, tracker):
        # pile fragments of distinct levels onto system 0
        for lvl in range(6):
            tracker.cluster[0].put(StoredFragment("obj", lvl, 0, 150, None))
        before = tracker.utilization()
        moves = rebalance_moves(tracker, max_moves=10)
        assert moves
        srcs = {m[1] for m in moves}
        assert srcs == {0}
        # execute the proposals (settling their commitments) and verify
        # the spread shrank
        assert apply_moves(tracker, moves) == len(moves)
        after = tracker.utilization()
        assert after.max() - after.min() < before.max() - before.min()

    def test_no_moves_when_balanced(self, tracker):
        for sid in range(6):
            tracker.cluster[sid].put(
                StoredFragment("obj", sid, 0, int(tracker.capacities[sid] * 0.1), None)
            )
        assert rebalance_moves(tracker, threshold=0.05) == []

    def test_one_fragment_per_level_per_system(self, tracker):
        # two fragments of the SAME level on system 0: the rule forbids
        # moving one onto a system already hosting that level
        tracker.cluster[0].put(StoredFragment("obj", 0, 0, 150, None))
        tracker.cluster[0].put(StoredFragment("obj", 0, 1, 150, None))
        for sid in range(1, 6):
            tracker.cluster[sid].put(StoredFragment("obj", 0, sid + 1, 10, None))
        moves = rebalance_moves(tracker, max_moves=5)
        for key, src, dst in moves:
            hosted = {
                (f.object_name, f.level)
                for f in tracker.cluster[dst]._store.values()
            }
            assert (key[0], key[1]) not in hosted

    def test_max_moves_bound(self, tracker):
        for lvl in range(6):
            tracker.cluster[0].put(StoredFragment("obj", lvl, 0, 150, None))
        assert len(rebalance_moves(tracker, max_moves=2)) <= 2
        with pytest.raises(ValueError):
            rebalance_moves(tracker, max_moves=-1)

    def test_proposals_register_commitments(self, tracker):
        for lvl in range(6):
            tracker.cluster[0].put(StoredFragment("obj", lvl, 0, 150, None))
        moves = rebalance_moves(tracker, max_moves=10)
        assert moves
        pend = tracker.pending
        assert pend[0] < 0  # the donor sheds planned bytes...
        assert pend.sum() == pytest.approx(0.0)  # ...that receivers gain
        # mid-plan accounting sees the reservations, not just resident
        # bytes: the donor's projected load already excludes the moves.
        assert tracker.used()[0] == pytest.approx(900.0 + pend[0])
        assert apply_moves(tracker, moves) == len(moves)
        assert np.all(tracker.pending == 0.0)

    def test_unavailable_systems_neither_donate_nor_receive(self, tracker):
        for lvl in range(6):
            tracker.cluster[0].put(StoredFragment("obj", lvl, 0, 150, None))
        tracker.cluster.fail([0])
        # the only hot system is down: nothing to plan, no stall
        assert rebalance_moves(tracker, max_moves=10) == []
        tracker.cluster.restore_all()
        tracker.cluster.fail([1])
        moves = rebalance_moves(tracker, max_moves=10)
        assert moves
        assert all(dst != 1 for _, _, dst in moves)


class TestApplyMoves:
    def test_failed_read_skips_move_and_keeps_reservation(self, tracker):
        for lvl in range(6):
            tracker.cluster[0].put(StoredFragment("obj", lvl, 0, 150, None))
        moves = rebalance_moves(tracker, max_moves=10)
        assert len(moves) >= 2
        lost_key, lost_src, lost_dst = moves[0]
        tracker.cluster[lost_src].delete(*lost_key)
        applied = apply_moves(tracker, moves)
        assert applied == len(moves) - 1
        # the skipped move's reservation stays until the planner ends
        # the session
        assert tracker.pending[lost_dst] == pytest.approx(150.0)
        tracker.clear_commitments()
        assert np.all(tracker.pending == 0.0)

"""Tests for the geo-distributed storage substrate."""

import numpy as np
import pytest

from repro.formats import crc32
from repro.storage import (
    BernoulliFailureModel,
    CorrelatedFailureModel,
    CorruptFragmentError,
    MaintenanceSchedule,
    StorageCluster,
    StoredFragment,
    UnavailableError,
)


def place(cluster, name: str, level: int, fragments) -> None:
    """Fragment i on system i (the layout a prepare writes); a plain int
    is a simulated fragment of that many bytes."""
    for i, frag in enumerate(fragments):
        if isinstance(frag, int):
            cluster[i].put(StoredFragment(name, level, i, frag, None))
        else:
            cluster[i].put(StoredFragment(name, level, i, len(frag), frag,
                                          checksum=crc32(frag)))


@pytest.fixture
def cluster():
    return StorageCluster([1e9] * 8)


class TestStorageSystem:
    def test_put_get(self, cluster):
        frag = StoredFragment("obj", 0, 3, 5, b"hello")
        cluster[2].put(frag)
        got = cluster[2].get("obj", 0, 3)
        assert got.payload == b"hello"
        assert got.nbytes == 5

    def test_get_missing(self, cluster):
        with pytest.raises(KeyError):
            cluster[0].get("obj", 0, 0)

    def test_unavailable_blocks_access(self, cluster):
        cluster[1].put(StoredFragment("o", 0, 0, 3, b"abc"))
        cluster[1].fail()
        with pytest.raises(UnavailableError):
            cluster[1].get("o", 0, 0)
        with pytest.raises(UnavailableError):
            cluster[1].put(StoredFragment("o", 0, 1, 1, b"x"))
        cluster[1].restore()
        assert cluster[1].get("o", 0, 0).payload == b"abc"

    def test_used_bytes_counts_while_down(self, cluster):
        cluster[0].put(StoredFragment("o", 0, 0, 100, None))
        cluster[0].fail()
        assert cluster[0].used_bytes == 100

    def test_delete(self, cluster):
        cluster[0].put(StoredFragment("o", 1, 2, 4, b"data"))
        cluster[0].delete("o", 1, 2)
        assert not cluster[0].has("o", 1, 2)


class TestCluster:
    def test_validation(self):
        with pytest.raises(ValueError):
            StorageCluster([1e9])
        with pytest.raises(ValueError):
            StorageCluster([1e9, -1])
        with pytest.raises(ValueError):
            StorageCluster([1e9, 1e9], names=["only-one"])

    def test_place_and_locate(self, cluster):
        place(cluster, "obj", 0, [b"frag%d" % i for i in range(6)])
        loc = cluster.locate("obj", 0)
        assert loc == {i: i for i in range(6)}

    def test_place_simulated_sizes(self, cluster):
        place(cluster, "big", 2, [10**12] * 8)
        assert cluster.total_stored_bytes() == 8 * 10**12

    def test_locate_respects_failures(self, cluster):
        place(cluster, "obj", 0, [b"x"] * 8)
        cluster.fail([0, 3])
        loc = cluster.locate("obj", 0)
        assert set(loc.values()) == set(range(8)) - {0, 3}
        assert cluster.failed_ids() == [0, 3]
        cluster.restore_all()
        assert len(cluster.locate("obj", 0)) == 8

    @pytest.mark.parametrize("bad", [8, 99, -1])
    def test_fail_rejects_ids_outside_range(self, cluster, bad):
        # -1 would otherwise take system 7 down by negative indexing.
        with pytest.raises(ValueError, match=rf"{bad}.*n=8"):
            cluster.fail([2, bad])
        assert cluster.failed_ids() == []  # checked before any goes down

    def test_locate_counts_reachable_fragments(self, cluster):
        place(cluster, "obj", 1, [b"x"] * 8)
        cluster.fail([0, 1, 2])
        assert len(cluster.locate("obj", 1)) == 5

    def test_fetch_prefers_any_available(self, cluster):
        place(cluster, "obj", 0, [b"a", b"b", b"c"])
        cluster.fail([1])
        assert cluster.fetch("obj", 0, 0).payload == b"a"
        with pytest.raises(KeyError):
            cluster.fetch("obj", 0, 1)

    def test_fetch_reads_home_verified(self, cluster):
        """One verified read on the recorded home; a copy elsewhere is
        read only when the home no longer holds the fragment."""
        place(cluster, "obj", 0, [b"a", b"b", b"c"])
        stale = StoredFragment("obj", 0, 2, 1, b"z", checksum=crc32(b"z"))
        cluster[0].put(stale)
        assert cluster.fetch("obj", 0, 2, home=2, crc=crc32(b"c")).payload == b"c"
        with pytest.raises(CorruptFragmentError, match="recorded checksum"):
            cluster.fetch("obj", 0, 2, crc=crc32(b"c"))  # scans from id 0
        cluster[2].delete("obj", 0, 2)
        with pytest.raises(CorruptFragmentError):
            cluster.fetch("obj", 0, 2, home=2, crc=crc32(b"c"))

    def test_get_verified_size_only_returned_as_read(self, cluster):
        place(cluster, "sim", 0, [10, 10])
        frag = cluster[1].get_verified("sim", 0, 1, crc32(b"x"))
        assert frag.payload is None and frag.nbytes == 10


class TestFailureModels:
    def test_bernoulli_probability(self):
        model = BernoulliFailureModel(0.3, seed=0)
        draws = np.array([model.sample(1000).mean() for _ in range(5)])
        assert abs(draws.mean() - 0.3) < 0.02

    def test_bernoulli_validation(self):
        with pytest.raises(ValueError):
            BernoulliFailureModel(1.5)

    def test_bernoulli_deterministic(self):
        a = BernoulliFailureModel(0.5, seed=7).sample_failed_ids(20)
        b = BernoulliFailureModel(0.5, seed=7).sample_failed_ids(20)
        assert a == b

    def test_maintenance_schedule(self):
        sched = MaintenanceSchedule()
        sched.add_window(2, 10.0, 20.0)
        sched.add_window(5, 15.0, 25.0)
        assert sched.windows == {2: [(10.0, 20.0)], 5: [(15.0, 25.0)]}
        with pytest.raises(ValueError):
            sched.add_window(0, 5.0, 5.0)

    def test_correlated_failures(self):
        model = CorrelatedFailureModel(
            regions=[[0, 1, 2], [3, 4]], p_region=1.0, p_single=0.0, seed=0
        )
        assert model.sample_failed_ids(6) == [0, 1, 2, 3, 4]

    def test_correlated_validation(self):
        with pytest.raises(ValueError):
            CorrelatedFailureModel([[0], [0]], 0.1, 0.1)
        with pytest.raises(ValueError):
            CorrelatedFailureModel([[0]], 1.5, 0.1)

"""Tests for the metadata catalog schema."""

import json
import threading
import time

import pytest

from repro.metadata import FragmentRecord, MetadataCatalog, ObjectRecord


@pytest.fixture
def catalog(tmp_path):
    with MetadataCatalog(tmp_path / "meta") as cat:
        yield cat


def _obj(name="nyx:temperature"):
    return ObjectRecord(
        name=name,
        shape=[512, 512, 512],
        dtype="float32",
        level_sizes=[100, 1000, 10000, 100000],
        level_errors=[4e-3, 5e-4, 6e-5, 1e-7],
        ft_config=[8, 5, 4, 2],
        n_systems=16,
        data_max=312.5,
    )


class TestObjects:
    def test_roundtrip(self, catalog):
        catalog.put_object(_obj())
        rec = catalog.get_object("nyx:temperature")
        assert rec.shape == [512, 512, 512]
        assert rec.ft_config == [8, 5, 4, 2]
        assert rec.num_levels == 4
        assert rec.data_max == 312.5

    def test_missing(self, catalog):
        with pytest.raises(KeyError):
            catalog.get_object("ghost")

    def test_list(self, catalog):
        catalog.put_object(_obj("a"))
        catalog.put_object(_obj("b"))
        assert catalog.list_objects() == ["a", "b"]

    def test_delete_cascades(self, catalog):
        catalog.put_object(_obj("a"))
        catalog.put_fragment(FragmentRecord("a", 0, 0, 3, 100))
        catalog.put_fragment(FragmentRecord("a", 1, 2, 4, 200))
        catalog.delete_object("a")
        assert catalog.list_objects() == []
        assert catalog.level_fragments("a", 0) == []

    def test_overwrite(self, catalog):
        catalog.put_object(_obj("a"))
        updated = _obj("a")
        updated.ft_config = [9, 6, 4, 2]
        catalog.put_object(updated)
        assert catalog.get_object("a").ft_config == [9, 6, 4, 2]


class TestFragments:
    def test_roundtrip(self, catalog):
        catalog.put_fragment(FragmentRecord("obj", 2, 7, 11, 4096, checksum=123))
        rec = catalog.get_fragment("obj", 2, 7)
        assert rec.system_id == 11
        assert rec.nbytes == 4096
        assert rec.checksum == 123

    def test_missing(self, catalog):
        with pytest.raises(KeyError):
            catalog.get_fragment("obj", 0, 0)

    def test_level_fragments_sorted(self, catalog):
        for idx in (3, 1, 2, 0):
            catalog.put_fragment(FragmentRecord("obj", 0, idx, idx, 10))
        recs = catalog.level_fragments("obj", 0)
        assert [r.index for r in recs] == [0, 1, 2, 3]

    def test_level_isolation(self, catalog):
        catalog.put_fragment(FragmentRecord("obj", 0, 0, 0, 10))
        catalog.put_fragment(FragmentRecord("obj", 1, 0, 1, 10))
        assert len(catalog.level_fragments("obj", 0)) == 1

    def test_relocate(self, catalog):
        catalog.put_fragment(FragmentRecord("obj", 0, 5, 2, 10))
        catalog.relocate_fragment("obj", 0, 5, 9)
        assert catalog.get_fragment("obj", 0, 5).system_id == 9


class TestBandwidthHistory:
    def test_estimate_none_without_history(self, catalog):
        assert catalog.bandwidth_estimate(0) is None

    def test_single_observation(self, catalog):
        catalog.record_throughput(0, 1e9)
        assert catalog.bandwidth_estimate(0) == 1e9

    def test_ewma_tracks_recent(self, catalog):
        for _ in range(20):
            catalog.record_throughput(1, 1e9)
        for _ in range(20):
            catalog.record_throughput(1, 2e9)
        est = catalog.bandwidth_estimate(1)
        assert est > 1.9e9

    def test_history_bounded(self, catalog):
        for i in range(200):
            catalog.record_throughput(2, 1e9 + i, keep=16)
        raw = catalog.store.get(b"bw/0002")
        assert len(json.loads(raw)) == 16

    def test_validation(self, catalog):
        with pytest.raises(ValueError):
            catalog.record_throughput(0, 0.0)


class _YieldingStore:
    """Dict-backed KV stub whose ``get`` yields the CPU before returning.

    Each get and put is atomic, like the real store; the pause hands the
    interpreter to the other threads between a caller's read and its
    write, so an unserialised read-modify-write loses updates every time
    rather than once in a blue moon.
    """

    def __init__(self):
        self.data = {}

    def get(self, key):
        value = self.data.get(key)
        time.sleep(0.001)
        return value

    def put(self, key, value):
        self.data[key] = value


class TestConcurrentCounters:
    THREADS, CALLS = 4, 5

    def _hammer(self, fn):
        threads = [
            threading.Thread(
                target=lambda: [fn() for _ in range(self.CALLS)]
            )
            for _ in range(self.THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)

    def test_record_throughput_loses_nothing(self):
        cat = MetadataCatalog(_YieldingStore())
        self._hammer(lambda: cat.record_throughput(3, 1e9))
        hist = json.loads(cat.store.data[b"bw/0003"])
        assert len(hist) == self.THREADS * self.CALLS

    def test_record_access_loses_nothing(self):
        cat = MetadataCatalog(_YieldingStore())
        self._hammer(lambda: cat.record_access("hot"))
        assert cat.access_count("hot") == self.THREADS * self.CALLS


def test_persistence(tmp_path):
    with MetadataCatalog(tmp_path / "meta") as cat:
        cat.put_object(_obj("persisted"))
    with MetadataCatalog(tmp_path / "meta") as cat:
        assert cat.get_object("persisted").n_systems == 16

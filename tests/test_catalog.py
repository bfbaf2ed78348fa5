"""Tests for the metadata catalog schema."""

import json
import math
import threading
import time
from dataclasses import asdict

import pytest

from repro.metadata import MetadataCatalog, ObjectRecord


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

    def test_stored_bytes_are_the_asdict_serialisation(self, tmp_path, request):
        """put_object stores exactly ``json.dumps(asdict(rec))`` for the
        records the pipeline writes (one tile, tiled) and for a migrated
        one (``extra["generations"]``)."""
        from repro.core import RAPIDS
        from repro.refactor import Refactorer
        from repro.service.traffic import synthetic_field
        from repro.storage import StorageCluster
        from repro.transfer import paper_bandwidth_profile

        cat = MetadataCatalog(tmp_path / "meta")
        request.addfinalizer(cat.close)
        rapids = RAPIDS(
            StorageCluster(paper_bandwidth_profile(8)), cat,
            refactorer=Refactorer(4), omega=1.0,
        )
        written = []
        real = cat.put_object

        def spy(rec):
            want = json.dumps(asdict(rec)).encode()
            real(rec)
            written.append(rec.name)
            assert cat.store.get(f"obj/{rec.name}".encode()) == want

        cat.put_object = spy
        data = synthetic_field(1, 8192)
        rapids.prepare("one", data)
        rapids.prepare("tiled", data, parallelism="process", processes=1,
                       tile_planes=8)
        one, tiled = cat.get_object("one"), cat.get_object("tiled")
        assert "procpipe" in tiled.extra and "procpipe" not in one.extra
        one.extra["generations"] = [0, 1, 2, 1]
        cat.put_object(one)
        assert written == ["one", "tiled", "one"]
        assert cat.get_object("one").generations == [0, 1, 2, 1]

    def test_overwrite(self, catalog):
        catalog.put_object(_obj("a"))
        updated = _obj("a")
        updated.ft_config = [9, 6, 4, 2]
        catalog.put_object(updated)
        assert catalog.get_object("a").ft_config == [9, 6, 4, 2]


def _with_fragments(rec):
    """``rec`` with every level's fragment set: fragment i on system i."""
    n = rec.n_systems
    rec.checksums = [[1000 * j + i for i in range(n)] for j in range(rec.num_levels)]
    rec.fragment_sizes = [[10 * (j + 1)] * n for j in range(rec.num_levels)]
    rec.placements = [list(range(n)) for _ in range(rec.num_levels)]
    return rec


def _legacy_layout(store, rec, order):
    """Write ``rec`` as a workspace that kept one ``frag/`` record per
    fragment (written in index ``order``) and no fragments in the record."""
    d = {k: v for k, v in asdict(rec).items()
         if k not in ("checksums", "fragment_sizes", "placements")}
    store.put(f"obj/{rec.name}".encode(), json.dumps(d).encode())
    for j in range(rec.num_levels):
        for i in order:
            store.put(
                f"frag/{rec.name}/{j:04d}/{i:04d}".encode(),
                json.dumps({
                    "object_name": rec.name, "level": j, "index": i,
                    "system_id": rec.placements[j][i],
                    "nbytes": rec.fragment_sizes[j][i],
                    "checksum": rec.checksums[j][i],
                }).encode(),
            )


class TestFragments:
    """Each level's fragment set lives in the object record."""

    def test_roundtrip(self, catalog):
        catalog.put_object(_with_fragments(_obj()))
        rec = catalog.get_object("nyx:temperature")
        assert rec.checksums[2][7] == 2007
        assert rec.fragment_sizes[2][7] == 30
        assert rec.placements[2][7] == 7

    def test_missing(self, catalog):
        """A record written without fragment sets still loads."""
        d = asdict(_obj())
        for key in ("checksums", "fragment_sizes", "placements"):
            del d[key]
        catalog.store.put(b"obj/nyx:temperature", json.dumps(d).encode())
        rec = catalog.get_object("nyx:temperature")
        assert rec.checksums == rec.fragment_sizes == rec.placements == []

    def test_level_fragments_sorted(self, tmp_path):
        """Opening a workspace with per-fragment records folds them into
        the object record in index order and deletes them."""
        rec = _with_fragments(_obj())
        with MetadataCatalog(tmp_path / "meta") as cat:
            _legacy_layout(cat.store, rec, order=range(15, -1, -1))
        with MetadataCatalog(tmp_path / "meta") as cat:
            assert cat.get_object(rec.name) == rec
            assert cat.store.keys(b"frag/") == []

    def test_level_isolation(self, tmp_path):
        """A level without all n fragment records leaves its object
        unadopted; the other objects are folded."""
        whole, partial = _with_fragments(_obj("a")), _with_fragments(_obj("b"))
        with MetadataCatalog(tmp_path / "meta") as cat:
            _legacy_layout(cat.store, whole, order=range(16))
            _legacy_layout(cat.store, partial, order=range(16))
            cat.store.delete(b"frag/b/0003/0005")
        with MetadataCatalog(tmp_path / "meta") as cat:
            assert cat.get_object("a") == whole
            assert cat.get_object("b").checksums == []
            assert cat.store.keys(b"frag/") == []

    def test_relocate(self, catalog):
        from repro.healing import DurabilityLedger

        catalog.put_object(_with_fragments(_obj()))
        ledger = DurabilityLedger(catalog)
        entry = ledger.get("nyx:temperature", 1)
        entry.placement[5] = 9
        ledger.record(entry)
        rec = catalog.get_object("nyx:temperature")
        assert rec.placements[1][5] == 9
        assert rec.placements[0][5] == rec.placements[2][5] == 5
        assert catalog.store.keys(b"health/") == []


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
        """One ``{"ewma", "count"}`` record per system, not a window
        (the same value as the 64-entry window's up to 64 observations)."""
        est = None
        for i in range(200):
            obs = 1e9 + i
            catalog.record_throughput(2, obs)
            est = obs if est is None else (1 - 0.3) * est + 0.3 * obs
        raw = catalog.store.get(b"bw/0002")
        assert json.loads(raw) == {"ewma": est, "count": 200}
        assert catalog.bandwidth_estimate(2) == est

    def test_record_size_does_not_grow(self, catalog):
        """After 1,000 observations the record is as long as after 2,
        but for the count's extra digits."""
        sizes = []
        for _ in range(1000):
            catalog.record_throughput(4, 1e9)
            sizes.append(len(catalog.store.get(b"bw/0004")))
        assert sizes[999] - sizes[1] == len("1000") - len("2")

    def test_an_older_window_reads_as_no_observation(self, catalog):
        """The list an older workspace keeps under ``bw/`` holds what its
        restores wrote (configured bandwidths), so it is not an estimate
        and the next observation starts the EWMA afresh."""
        catalog.store.put(b"bw/0006", json.dumps([1e9, 2e9]).encode())
        assert catalog.bandwidth_estimate(6) is None
        catalog.record_throughput(6, 3e9)
        state = json.loads(catalog.store.get(b"bw/0006"))
        assert state == {"ewma": 3e9, "count": 1}

    def test_validation(self, catalog):
        for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                catalog.record_throughput(0, bad)
        assert catalog.bandwidth_estimate(0) is None


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

    def keys(self, prefix=b""):
        return sorted(k for k in self.data if k.startswith(prefix))


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
        state = json.loads(cat.store.data[b"bw/0003"])
        assert state["count"] == self.THREADS * self.CALLS

    def test_record_access_loses_nothing(self):
        cat = MetadataCatalog(_YieldingStore())
        self._hammer(lambda: cat.record_access("hot"))
        assert json.loads(cat.store.data[b"acc/hot"]) == self.THREADS * self.CALLS


def test_persistence(tmp_path):
    with MetadataCatalog(tmp_path / "meta") as cat:
        cat.put_object(_obj("persisted"))
    with MetadataCatalog(tmp_path / "meta") as cat:
        assert cat.get_object("persisted").n_systems == 16

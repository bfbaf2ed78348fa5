"""Tests for the log-structured KV store, including crash recovery."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metadata import KVStore


@pytest.fixture
def store(tmp_path):
    with KVStore(tmp_path / "db") as kv:
        yield kv


class TestBasicOps:
    def test_put_get(self, store):
        store.put(b"k1", b"v1")
        assert store.get(b"k1") == b"v1"

    def test_get_missing(self, store):
        assert store.get(b"nope") is None
        assert store.get(b"nope", b"dflt") == b"dflt"

    def test_overwrite(self, store):
        store.put(b"k", b"v1")
        store.put(b"k", b"v2")
        assert store.get(b"k") == b"v2"

    def test_delete(self, store):
        store.put(b"k", b"v")
        assert store.delete(b"k") is True
        assert store.get(b"k") is None
        assert store.delete(b"k") is False

    def test_contains_len(self, store):
        store.put(b"a", b"1")
        store.put(b"b", b"2")
        assert b"a" in store
        assert b"z" not in store
        assert len(store) == 2

    def test_scan_prefix(self, store):
        store.put(b"obj/x", b"1")
        store.put(b"obj/y", b"2")
        store.put(b"frag/x", b"3")
        assert store.scan(b"obj/") == [(b"obj/x", b"1"), (b"obj/y", b"2")]
        assert store.keys(b"frag/") == [b"frag/x"]

    def test_empty_value(self, store):
        store.put(b"k", b"")
        assert store.get(b"k") == b""

    def test_binary_safety(self, store):
        key = bytes(range(1, 256))
        val = bytes(range(256)) * 10
        store.put(key, val)
        assert store.get(key) == val

    def test_key_validation(self, store):
        with pytest.raises(ValueError):
            store.put(b"", b"v")
        with pytest.raises(TypeError):
            store.put("str", b"v")
        with pytest.raises(TypeError):
            store.put(b"k", "str")


class TestDurability:
    def test_reopen_preserves_data(self, tmp_path):
        with KVStore(tmp_path / "db") as kv:
            kv.put(b"a", b"1")
            kv.put(b"b", b"2")
            kv.delete(b"a")
        with KVStore(tmp_path / "db") as kv:
            assert kv.get(b"a") is None
            assert kv.get(b"b") == b"2"

    def test_torn_tail_recovery(self, tmp_path):
        with KVStore(tmp_path / "db") as kv:
            kv.put(b"good", b"value")
            seg = kv._segment_path(kv._active_id)
        # Simulate a crash mid-append: write half a record.
        with open(seg, "ab") as fh:
            fh.write(struct.pack("<I", 12345) + b"\x05\x00")
        with KVStore(tmp_path / "db") as kv:
            assert kv.get(b"good") == b"value"
            # torn bytes were truncated; a new write round-trips
            kv.put(b"after", b"crash")
            assert kv.get(b"after") == b"crash"

    def test_corrupt_middle_record_drops_tail_only(self, tmp_path):
        """A flipped bit invalidates that record's CRC; replay stops there
        (Bitcask semantics), keeping every record before it."""
        with KVStore(tmp_path / "db") as kv:
            kv.put(b"first", b"1")
            kv.put(b"second", b"2")
            seg = kv._segment_path(kv._active_id)
        data = bytearray(seg.read_bytes())
        data[-1] ^= 0xFF  # corrupt the last record's value
        seg.write_bytes(bytes(data))
        with KVStore(tmp_path / "db") as kv:
            assert kv.get(b"first") == b"1"
            assert kv.get(b"second") is None

    def test_segment_rollover(self, tmp_path):
        with KVStore(tmp_path / "db", segment_bytes=1024) as kv:
            for i in range(100):
                kv.put(f"key-{i:03d}".encode(), b"x" * 64)
            assert len(kv._segment_ids()) > 1
            for i in range(100):
                assert kv.get(f"key-{i:03d}".encode()) == b"x" * 64

    def test_reopen_after_rollover(self, tmp_path):
        with KVStore(tmp_path / "db", segment_bytes=1024) as kv:
            for i in range(50):
                kv.put(f"k{i}".encode(), str(i).encode() * 20)
        with KVStore(tmp_path / "db", segment_bytes=1024) as kv:
            for i in range(50):
                assert kv.get(f"k{i}".encode()) == str(i).encode() * 20


@given(
    st.lists(
        st.tuples(
            st.sampled_from([b"k1", b"k2", b"k3", b"k4"]),
            st.one_of(st.binary(max_size=30), st.none()),
        ),
        max_size=40,
    )
)
@settings(max_examples=30, deadline=None)
def test_store_matches_dict_model(tmp_path_factory, ops):
    """Property: the store behaves exactly like a dict under put/delete."""
    path = tmp_path_factory.mktemp("kv")
    model = {}
    with KVStore(path / "db") as kv:
        for key, val in ops:
            if val is None:
                model.pop(key, None)
                kv.delete(key)
            else:
                model[key] = val
                kv.put(key, val)
        for key in (b"k1", b"k2", b"k3", b"k4"):
            assert kv.get(key) == model.get(key)
    # and survives reopen
    with KVStore(path / "db") as kv:
        for key in (b"k1", b"k2", b"k3", b"k4"):
            assert kv.get(key) == model.get(key)

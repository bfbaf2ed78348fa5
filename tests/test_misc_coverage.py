"""Direct tests for small public utilities exercised only indirectly
elsewhere: corruption-detection on read, log records, field constants."""

import pytest

from repro.ec import gf256
from repro.metadata import CorruptionError, KVStore
from repro.transfer.logs import TransferRecord


class TestCorruptionErrorOnRead:
    def test_in_place_corruption_detected_at_get(self, tmp_path):
        """If a record rots on disk *after* the index was built, get()
        must raise CorruptionError rather than return garbage."""
        kv = KVStore(tmp_path / "db")
        try:
            kv.put(b"key", b"value-that-will-rot")
            seg_id, off, rec_len = kv._index[b"key"]
            path = kv._segment_path(seg_id)
            data = bytearray(path.read_bytes())
            data[off + rec_len - 3] ^= 0xFF  # flip a byte inside the value
            # rewrite the file under the open handles
            with open(path, "r+b") as fh:
                fh.seek(0)
                fh.write(bytes(data))
            with pytest.raises(CorruptionError):
                kv.get(b"key")
        finally:
            kv.close()


class TestTransferRecord:
    def test_throughput(self):
        rec = TransferRecord("gcs-00", nbytes=10**9, start_time=0.0,
                             elapsed_seconds=2.0)
        assert rec.throughput == pytest.approx(5e8)


class TestGF256Constants:
    def test_field_constants(self):
        assert gf256.PRIMITIVE_POLY == 0x11B
        assert len(gf256.EXP_TABLE) == 510
        assert len(gf256.LOG_TABLE) == 256

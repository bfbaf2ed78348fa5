"""Tests for the self-describing container format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import (
    Container,
    FormatError,
    crc32,
    read_fragment_file,
    verify,
    write_fragment_file,
)
from repro.formats.container import read_fragment_header


class TestChecksum:
    def test_crc_verify(self):
        assert verify(b"payload", crc32(b"payload"))
        assert not verify(b"payload", crc32(b"other"))

    def test_crc_empty(self):
        assert crc32(b"") == 0


class TestContainer:
    def test_roundtrip(self):
        c = Container({"object_name": "nyx", "level": 2})
        c.add_block("fragment", b"\x01\x02\x03")
        c.add_block("aux", b"")
        back = Container.from_bytes(c.to_bytes())
        assert back.attrs == {"object_name": "nyx", "level": 2}
        assert back.block("fragment") == b"\x01\x02\x03"
        assert back.block("aux") == b""
        assert back.block_names() == ["fragment", "aux"]

    def test_no_blocks(self):
        c = Container({"empty": True})
        back = Container.from_bytes(c.to_bytes())
        assert back.attrs == {"empty": True}
        assert back.block_names() == []

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            Container.from_bytes(b"XXXX" + b"\x00" * 20)

    def test_corrupted_payload_detected(self):
        c = Container()
        c.add_block("fragment", b"A" * 100)
        raw = bytearray(c.to_bytes())
        raw[-50] ^= 0xFF
        with pytest.raises(FormatError, match="checksum"):
            Container.from_bytes(bytes(raw))

    def test_truncated_payload_detected(self):
        c = Container()
        c.add_block("fragment", b"A" * 100)
        raw = c.to_bytes()
        with pytest.raises(FormatError):
            Container.from_bytes(raw[:-10])

    def test_duplicate_block_rejected(self):
        c = Container()
        c.add_block("x", b"1")
        with pytest.raises(ValueError):
            c.add_block("x", b"2")

    def test_empty_block_name_rejected(self):
        with pytest.raises(ValueError):
            Container().add_block("", b"x")

    def test_file_roundtrip(self, tmp_path):
        c = Container({"k": "v"})
        c.add_block("data", bytes(range(256)))
        c.write(tmp_path / "f.rdc")
        back = Container.read(tmp_path / "f.rdc")
        assert back.block("data") == bytes(range(256))

    @given(
        st.dictionaries(st.text(max_size=10), st.integers(), max_size=5),
        st.binary(max_size=200),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, attrs, payload):
        c = Container(attrs)
        c.add_block("b", payload)
        back = Container.from_bytes(c.to_bytes())
        assert back.attrs == attrs
        assert back.block("b") == payload


class TestFragmentFiles:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "frag.rdc"
        write_fragment_file(
            path,
            b"fragbytes",
            object_name="nyx:temperature",
            level=1,
            index=7,
            k=12,
            m=4,
            extra={"epoch": 3},
        )
        attrs, payload = read_fragment_file(path)
        assert payload == b"fragbytes"
        assert attrs["object_name"] == "nyx:temperature"
        assert attrs["k"] == 12 and attrs["m"] == 4
        assert attrs["epoch"] == 3

    @settings(max_examples=40, deadline=None)
    @given(
        payload=st.binary(max_size=512),
        name=st.text(max_size=12),
        level=st.integers(0, 9),
        index=st.integers(0, 255),
        extra=st.dictionaries(
            st.text(max_size=6), st.integers(-(2**40), 2**40), max_size=3
        ),
        pass_crc=st.booleans(),
    )
    def test_one_pass_write_is_the_container_bytes(
        self, tmp_path_factory, payload, name, level, index, extra, pass_crc
    ):
        """The header-then-payload write stores exactly the container
        serialisation, whether the caller hands in the CRC or not."""
        path = tmp_path_factory.mktemp("frag") / "f.rdc"
        write_fragment_file(
            path, payload, object_name=name, level=level, index=index,
            k=3, m=1, extra=extra, crc=crc32(payload) if pass_crc else None,
        )
        c = Container({"object_name": name, "level": level, "index": index,
                       "k": 3, "m": 1, **extra})
        c.add_block("fragment", payload)
        assert path.read_bytes() == c.to_bytes()

    def test_missing_fragment_block(self, tmp_path):
        c = Container({"object_name": "x"})
        c.write(tmp_path / "bad.rdc")
        with pytest.raises(FormatError):
            read_fragment_file(tmp_path / "bad.rdc")

    def test_every_truncation_is_a_format_error(self, tmp_path):
        """A file cut at any byte — inside a fixed-width field, a name,
        the payload — is a FormatError, never a struct.error."""
        path = tmp_path / "frag.rdc"
        write_fragment_file(path, bytes(range(40)), object_name="nyx/t",
                            level=1, index=7, k=12, m=4)
        whole = path.read_bytes()
        assert Container.from_bytes(whole).block("fragment") == bytes(range(40))
        for cut in range(len(whole)):
            with pytest.raises(FormatError):
                Container.from_bytes(whole[:cut])

    def test_header_only_read(self, tmp_path):
        path = tmp_path / "frag.rdc"
        write_fragment_file(path, b"x" * 64, object_name="nyx/t", level=1,
                            index=7, k=12, m=4)
        attrs, payload, crc = read_fragment_file(path, with_crc=True)
        assert crc == crc32(payload)
        assert read_fragment_header(path) == attrs
        # The payload is never looked at: rot it, cut it off.
        whole = path.read_bytes()
        path.write_bytes(whole[:-70])
        assert read_fragment_header(path) == attrs
        for cut in (0, 3, 7, 12, len(whole) - 100):
            path.write_bytes(whole[:cut])
            with pytest.raises(FormatError):
                read_fragment_header(path)

"""Self-describing fragment container format (HDF5/ADIOS substitute).

RAPIDS writes each data/parity fragment to its own file in a
self-describing format so that the information of the original data
object (name, level, fragment index, EC parameters) travels with the
bytes (§4.1 step 5).  The container holds a JSON attribute document and
any number of named, CRC-checked binary blocks.

File layout (little-endian)::

    magic  "RDC1"                      (4 bytes)
    u16    version                     (currently 1)
    u32    attrs_len | attrs JSON (UTF-8)
    u32    num_blocks
    per block:
        u16 name_len | name (UTF-8)
        u32 crc32 | u64 payload_len | payload
"""

from __future__ import annotations

import io
import json
import struct
from pathlib import Path

from .checksum import crc32

__all__ = ["Container", "FormatError", "write_fragment_file",
           "read_fragment_file", "read_fragment_header"]

_MAGIC = b"RDC1"
_VERSION = 1


class FormatError(ValueError):
    """Raised on malformed or corrupted container files."""


class Container:
    """An in-memory self-describing container: attributes + named blocks."""

    def __init__(self, attrs: dict | None = None) -> None:
        self.attrs: dict = dict(attrs or {})
        self._blocks: dict[str, bytes] = {}
        #: Payload CRCs :meth:`from_bytes` verified, by block name.
        self._crcs: dict[str, int] = {}

    def add_block(self, name: str, payload: bytes) -> None:
        if not name:
            raise ValueError("block name must be non-empty")
        if name in self._blocks:
            raise ValueError(f"duplicate block name: {name!r}")
        self._blocks[name] = bytes(payload)

    def block(self, name: str) -> bytes:
        return self._blocks[name]

    def block_names(self) -> list[str]:
        return list(self._blocks)

    # -- wire format -----------------------------------------------------

    def to_bytes(self) -> bytes:
        out = io.BytesIO()
        out.write(_head(self.attrs, len(self._blocks)))
        for name, payload in self._blocks.items():
            out.write(_block_head(name, crc32(payload), len(payload)))
            out.write(payload)
        return out.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "Container":
        attrs, off = _parse_header(data)
        out = cls(attrs)
        try:
            (nblocks,) = struct.unpack_from("<I", data, off)
            off += 4
            for _ in range(nblocks):
                (nlen,) = struct.unpack_from("<H", data, off)
                off += 2
                name = data[off : off + nlen].decode()
                off += nlen
                crc, plen = struct.unpack_from("<IQ", data, off)
                off += 12
                payload = data[off : off + plen]
                if len(payload) != plen:
                    raise FormatError(f"truncated payload for block {name!r}")
                if crc32(payload) != crc:
                    raise FormatError(f"checksum mismatch in block {name!r}")
                off += plen
                out.add_block(name, payload)
                out._crcs[name] = crc
        except (struct.error, UnicodeDecodeError) as exc:
            # A file cut inside a fixed-width field or a block name.
            raise FormatError(f"truncated container: {exc}") from exc
        return out

    def write(self, path: str | Path) -> None:
        Path(path).write_bytes(self.to_bytes())

    @classmethod
    def read(cls, path: str | Path) -> "Container":
        return cls.from_bytes(Path(path).read_bytes())


def _head(attrs: dict, num_blocks: int) -> bytes:
    """Magic, version, the attribute document and the block count."""
    doc = json.dumps(attrs, sort_keys=True).encode()
    return (_MAGIC + struct.pack("<HI", _VERSION, len(doc)) + doc
            + struct.pack("<I", num_blocks))


def _block_head(name: str, crc: int, size: int) -> bytes:
    nm = name.encode()
    return struct.pack("<H", len(nm)) + nm + struct.pack("<IQ", crc, size)


def write_fragment_file(
    path: str | Path,
    payload: bytes,
    *,
    object_name: str,
    level: int,
    index: int,
    k: int,
    m: int,
    extra: dict | None = None,
    crc: int | None = None,
) -> None:
    """Write one EC fragment to a self-describing file in one pass: the
    header, then the payload straight from the caller's buffer.

    ``crc`` is the payload's CRC-32 when the caller already holds it
    (hashed here otherwise); the file is exactly what
    :meth:`Container.to_bytes` gives for the same attributes and block.
    """
    attrs = {
        "object_name": object_name,
        "level": level,
        "index": index,
        "k": k,
        "m": m,
        **(extra or {}),
    }
    if crc is None:
        crc = crc32(payload)
    with open(path, "wb") as fh:
        fh.write(_head(attrs, 1) + _block_head("fragment", crc, len(payload)))
        fh.write(payload)


def _parse_header(data: bytes) -> tuple[dict, int]:
    """The attribute document and the offset just past it."""
    if data[:4] != _MAGIC:
        raise FormatError("not a RAPIDS container (bad magic)")
    try:
        version, alen = struct.unpack_from("<HI", data, 4)
        if version != _VERSION:
            raise FormatError(f"unsupported container version {version}")
        # A cut-off JSON object never parses.
        return json.loads(data[10 : 10 + alen].decode()), 10 + alen
    except (struct.error, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"corrupt container header: {exc}") from exc


def read_fragment_header(path: str | Path) -> dict:
    """Attributes of a fragment file; the payload is never read."""
    with open(path, "rb") as fh:
        head = fh.read(10)
        alen = int.from_bytes(head[6:], "little")
        return _parse_header(head + fh.read(alen))[0]


def read_fragment_file(path: str | Path, *, with_crc: bool = False) -> tuple:
    """Read a fragment file; returns (attributes, payload) and, with
    ``with_crc``, the payload CRC-32 that parsing just verified."""
    c = Container.read(path)
    if "fragment" not in c.block_names():
        raise FormatError("container has no 'fragment' block")
    out = (c.attrs, c.block("fragment"))
    return (*out, c._crcs["fragment"]) if with_crc else out

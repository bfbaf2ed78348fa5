"""Progressive components: reordering bitplanes into refactored levels.

After the multilevel transform and bitplane encoding, the refactored
representation is a sequence of *components* (the paper's refactored
"levels") with sizes increasing top to bottom (s1 << s2 << ... << sl) and
reconstruction errors decreasing (e1 >> e2 >> ... >> el).  Following
pMGARD, bitplanes from *different* decomposition levels are reordered by
their relative importance to the reconstruction accuracy and regrouped,
so a single component typically mixes, say, the MSB planes of the fine
detail ring with mid planes of the coarse approximation.

Two grouping policies are provided (the second exists for the ablation
bench):

``importance`` (default)
    Sort every (group, plane) pair by descending magnitude weight
    ``2**(exponent_g - plane)``, then cut the ordered stream into
    ``num_components`` components whose *compressed byte sizes* follow a
    geometric progression (ratio configurable, default 4), enforcing the
    paper's s1 << s2 << ... assumption by construction.

``per-level``
    Component j = all planes of decomposition group j (no cross-level
    reordering) — the naive layout pMGARD improves upon.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from ..parallel.threads import thread_map
from .bitplane import PlaneSet

__all__ = [
    "PlaneRef",
    "Component",
    "group_planes",
    "component_to_bytes",
    "components_to_bytes",
    "component_from_bytes",
    "components_from_bytes",
    "assemble_planesets",
]

_MAGIC = b"RPC1"


@dataclass(frozen=True)
class PlaneRef:
    """Reference to one encoded plane: (coefficient group, plane index)."""

    group: int
    plane: int


@dataclass
class Component:
    """One refactored level: an ordered bundle of encoded planes."""

    index: int
    entries: list[tuple[PlaneRef, bytes]] = field(
        default_factory=list, init=False
    )

    @property
    def nbytes(self) -> int:
        """Payload size (plane bytes only; :attr:`serialized_nbytes` adds
        the 18-byte entry header per plane and the component header)."""
        return sum(len(blob) for _, blob in self.entries)

    @property
    def serialized_nbytes(self) -> int:
        """Exact byte length :func:`component_to_bytes` will produce.

        4-byte magic + 6-byte component header, then an 18-byte entry
        header per plane blob.  Knowing the sizes before serialising is
        what lets the pipelined prepare path run the fault-tolerance
        solver while payloads are still being built.
        """
        return 10 + sum(18 + len(blob) for _, blob in self.entries)


def _ordered_plane_stream(
    planesets: list[PlaneSet], policy: str
) -> list[tuple[PlaneRef, bytes, float]]:
    """Yield (ref, blob, weight) for every plane in consumption order."""
    stream: list[tuple[PlaneRef, bytes, float]] = []
    if policy == "per-level":
        for g, ps in enumerate(planesets):
            if ps.count == 0 or ps.num_planes == 0:
                continue
            for i, blob in enumerate(ps.planes):
                stream.append((PlaneRef(g, i), blob, 2.0 ** (ps.exponent - i)))
        return stream
    if policy != "importance":
        raise ValueError(f"unknown grouping policy: {policy!r}")
    refs: list[tuple[float, int, int]] = []  # (-weight, group, plane)
    for g, ps in enumerate(planesets):
        if ps.count == 0:
            continue
        for i in range(ps.num_planes):
            refs.append((-(2.0 ** (ps.exponent - i)), g, i))
    # Stable sort: descending weight, coarser group first on ties.  Plane
    # order within a group is automatically MSB-first because weights
    # decrease monotonically with the plane index.
    refs.sort()
    for negw, g, i in refs:
        stream.append((PlaneRef(g, i), planesets[g].planes[i], -negw))
    return stream


def group_planes(
    planesets: list[PlaneSet],
    num_components: int,
    *,
    policy: str = "importance",
    size_ratio: float = 4.0,
) -> list[Component]:
    """Split the encoded planes into ``num_components`` progressive levels.

    With the ``importance`` policy, component byte-size targets follow the
    geometric progression ``total * r**j / sum(r**i)``; a component closes
    as soon as its cumulative size reaches its target (every component is
    guaranteed at least one plane).  With ``per-level``, components map
    1:1 onto decomposition groups and ``num_components`` must not exceed
    the group count.
    """
    if num_components < 1:
        raise ValueError("num_components must be >= 1")
    stream = _ordered_plane_stream(planesets, policy)
    if not stream:
        raise ValueError("no planes to group (all coefficient groups empty)")
    if policy == "per-level":
        ngroups = max(ref.group for ref, _, _ in stream) + 1
        if num_components > ngroups:
            raise ValueError(
                f"per-level policy supports at most {ngroups} components"
            )
        # Map decomposition groups onto components contiguously.
        bounds = np.array_split(np.arange(ngroups), num_components)
        group_of = {}
        for c, idx in enumerate(bounds):
            for g in idx:
                group_of[int(g)] = c
        comps = [Component(index=j) for j in range(num_components)]
        for ref, blob, _ in stream:
            comps[group_of[ref.group]].entries.append((ref, blob))
        return comps

    total = sum(len(blob) for _, blob, _ in stream)
    weights = np.array([size_ratio**j for j in range(num_components)])
    targets = total * weights / weights.sum()
    comps = [Component(index=j) for j in range(num_components)]
    j = 0
    acc = 0
    for pos, (ref, blob, _) in enumerate(stream):
        remaining_planes = len(stream) - pos
        remaining_comps = num_components - j - 1
        # Close the component once its target is met, but never starve the
        # remaining components of their at-least-one-plane guarantee.
        if (
            comps[j].entries
            and acc >= targets[j]
            and j < num_components - 1
            and remaining_planes > remaining_comps
        ):
            j += 1
            acc = 0
        comps[j].entries.append((ref, blob))
        acc += len(blob)
    if any(not c.entries for c in comps):
        raise ValueError(
            f"not enough planes ({len(stream)}) for {num_components} components"
        )
    return comps


# -- serialization ------------------------------------------------------


def component_to_bytes(comp: Component, planesets: list[PlaneSet]) -> bytes:
    """Serialise a component to a self-contained byte string.

    Every entry carries the metadata needed to decode it without the
    other components: group id, plane index, and (once per group seen in
    this component) the group's count/exponent/num_planes triple.
    """
    out = bytearray()
    out += _MAGIC
    out += struct.pack("<HI", comp.index, len(comp.entries))
    for ref, blob in comp.entries:
        ps = planesets[ref.group]
        out += struct.pack(
            "<HHIiHI", ref.group, ref.plane, ps.count, ps.exponent, ps.num_planes,
            len(blob),
        )
        out += blob
    return bytes(out)


def components_to_bytes(
    comps: list[Component],
    planesets: list[PlaneSet],
    *,
    workers: int | None = None,
) -> list[bytes]:
    """Serialise every component, fanning the byte assembly over threads."""
    return thread_map(
        lambda c: component_to_bytes(c, planesets), comps, workers=workers
    )


def components_from_bytes(
    payloads: list[bytes], *, workers: int | None = None
) -> list[tuple[int, list[tuple[PlaneRef, bytes, tuple]]]]:
    """Parse serialised components, fanning the parsing over threads."""
    return thread_map(component_from_bytes, payloads, workers=workers)


def component_from_bytes(data: bytes) -> tuple[int, list[tuple[PlaneRef, bytes, tuple]]]:
    """Parse a serialised component.

    Returns ``(component_index, entries)`` where each entry is
    ``(ref, blob, (count, exponent, num_planes))``.
    """
    if data[:4] != _MAGIC:
        raise ValueError("not a RAPIDS component payload (bad magic)")
    idx, nentries = struct.unpack_from("<HI", data, 4)
    off = 10
    entries = []
    for _ in range(nentries):
        g, plane, count, exponent, num_planes, blen = struct.unpack_from(
            "<HHIiHI", data, off
        )
        off += 18
        blob = bytes(data[off : off + blen])
        if len(blob) != blen:
            raise ValueError("truncated component payload")
        off += blen
        entries.append((PlaneRef(g, plane), blob, (count, exponent, num_planes)))
    return idx, entries


def assemble_planesets(
    parsed_components: list[list[tuple[PlaneRef, bytes, tuple]]],
) -> list[PlaneSet]:
    """Rebuild per-group (possibly partial) PlaneSets from parsed components.

    The components must be a *prefix* of the progressive order (1..j).
    Groups with no plane present are returned as empty placeholders.
    Within a group the planes present always form an MSB prefix by
    construction of the grouping policies.
    """
    metas: dict[int, tuple] = {}
    planes: dict[int, dict[int, bytes]] = {}
    for entries in parsed_components:
        for ref, blob, meta in entries:
            metas[ref.group] = meta
            planes.setdefault(ref.group, {})[ref.plane] = blob
    if not metas:
        return []
    ngroups = max(metas) + 1
    out: list[PlaneSet] = []
    for g in range(ngroups):
        if g not in metas:
            out.append(PlaneSet(0, 0, 0, []))
            continue
        count, exponent, num_planes = metas[g]
        got = planes.get(g, {})
        prefix: list[bytes] = []
        for i in range(num_planes):
            if i not in got:
                break
            prefix.append(got[i])
        out.append(PlaneSet(count, exponent, num_planes, prefix))
    return out

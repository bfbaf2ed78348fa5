"""Live re-encoding migration: move an object to a new FT config safely.

When the control plane decides a level's parity count ``m_j`` must
change, the level is re-encoded and re-placed *live*, RapidRAID-style:
readers never see a window in which fewer than ``k_j`` clean fragments
are reachable.  The protocol, per level:

1. **Read** ``k_old`` fragments of the current generation, one
   verified read each on the system the object record places it on,
   and re-encode per (level, tile) of the record's tile table: decode
   the tile's chunk, encode it at the new ``m``, append each new
   fragment's chunk.  The old fragment set is not touched.
2. **Stage** the re-encoded fragment set under a *new generation*
   storage name (``<name>@g<gen+1>``, one fragment per system).  The
   new name collides with nothing; no reader looks at it yet.
3. **Verify** every staged fragment at rest (read-back + CRC).
4. **Flip**: one atomic object-record write updates ``ft_config[j]``,
   the level's generation and its fragment set (checksums, sizes,
   placements, chunk lengths) together.  Readers resolve fragment
   locations *through* the object record
   (:meth:`~repro.metadata.catalog.ObjectRecord.level_storage_name`),
   so before the flip they see the intact old generation and after it
   the fully redundant new one — there is no intermediate metadata
   state.
5. **Retire** the old generation (best-effort deletes; a failure here
   leaves garbage, never unavailability).

Any failure before the flip defers the level: staging is cleaned up
and the old generation remains authoritative — trivially safe.  The
stage step requires *every* system up (full placement or defer), so a
flipped level starts at full ``m_new`` headroom.

The invariant — **at every intermediate step, each level tolerates up
to its current ``m_j`` concurrent outages** — is what
``tests/test_control.py`` proves under injector traces, probing via
:func:`level_recoverable` at each :class:`LiveMigrator` checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..ec import ECConfig
from ..formats import crc32
from ..metadata import level_storage_name
from ..storage.system import FRAGMENT_ERRORS, StoredFragment
from ..transfer import TransferRequest, phase_latency

__all__ = [
    "LiveMigrator",
    "MigrationReport",
    "MigrationStep",
    "level_recoverable",
    "safety_breaches",
]


@dataclass
class MigrationStep:
    """Outcome of one level's migration attempt."""

    level: int
    action: str  # "migrated" | "deferred" | "unchanged"
    old_m: int
    new_m: int
    reason: str = ""


@dataclass
class MigrationReport:
    """What a migration pass did, and what it cost on the WAN."""

    object_name: str
    steps: list[MigrationStep] = field(default_factory=list)
    read_bytes: float = 0.0
    written_bytes: float = 0.0
    transfer_latency: float = 0.0

    @property
    def migrated(self) -> int:
        return sum(1 for s in self.steps if s.action == "migrated")

    @property
    def deferred(self) -> int:
        return sum(1 for s in self.steps if s.action == "deferred")

    @property
    def complete(self) -> bool:
        """Every level that needed to move did."""
        return self.deferred == 0

    def to_dict(self) -> dict:
        return {
            "object": self.object_name,
            "steps": [
                {
                    "level": s.level,
                    "action": s.action,
                    "old_m": s.old_m,
                    "new_m": s.new_m,
                    "reason": s.reason,
                }
                for s in self.steps
            ],
            "read_bytes": self.read_bytes,
            "written_bytes": self.written_bytes,
            "transfer_latency": self.transfer_latency,
        }


class LiveMigrator:
    """Executes FT-config changes level by level against a live stack.

    Parameters
    ----------
    rapids:
        The :class:`~repro.core.pipeline.RAPIDS` stack whose cluster,
        catalog, codec and ledger the migration runs against.
    """

    def __init__(self, rapids) -> None:
        self.rapids = rapids
        self.cluster = rapids.cluster
        self.catalog = rapids.catalog
        self.ledger = rapids.ledger
        self.codec = rapids.codec
        self.retry_policy = rapids.retry_policy
        self._requests: list[TransferRequest] = []

    # -- public ------------------------------------------------------------

    def migrate(
        self,
        name: str,
        new_ms: "list[int] | tuple[int, ...]",
        *,
        checkpoint=None,
    ) -> MigrationReport:
        """Migrate ``name`` toward ``new_ms``, one level at a time.

        Levels whose parity is unchanged are skipped; each changed
        level runs the stage→verify→flip→retire protocol independently
        (coarser levels first — they gate progressive reconstruction).
        A level that cannot currently be migrated safely is *deferred*,
        not forced: the report says so and a later pass retries.

        ``checkpoint(stage, level)`` fires after each protocol step —
        ``"decoded"``, ``"staged"``, ``"flipped"``, ``"retired"``, in that
        order — the seam fault-injection tests use to perturb and
        probe mid-migration state.
        """
        rec = self.catalog.get_object(name)
        new_ms = [int(m) for m in new_ms]
        if len(new_ms) != len(rec.ft_config):
            raise ValueError("new_ms must keep the level count unchanged")
        if any(a <= b for a, b in zip(new_ms, new_ms[1:])):
            raise ValueError(f"new_ms must be strictly decreasing, got {new_ms}")
        if new_ms[0] >= self.cluster.n or new_ms[-1] < 1:
            raise ValueError(f"invalid configuration {new_ms} for n={self.cluster.n}")
        report = MigrationReport(object_name=name)
        self._requests = []
        for j, target in enumerate(new_ms):
            rec = self.catalog.get_object(name)  # re-read: prior level flipped it
            old = int(rec.ft_config[j])
            if target == old:
                report.steps.append(MigrationStep(j, "unchanged", old, target))
                continue
            self._migrate_level(rec, j, target, report, checkpoint)
        if self._requests:
            res = phase_latency(self._requests, self.cluster.bandwidths)
            report.transfer_latency = float(res.makespan)
        return report

    # -- per-level protocol ------------------------------------------------

    def _migrate_level(
        self, rec, j: int, new_m: int, report: MigrationReport, checkpoint
    ) -> None:
        name = rec.name
        old_m = int(rec.ft_config[j])
        gen = rec.generations[j]
        sname_old = level_storage_name(name, gen)
        sname_new = level_storage_name(name, gen + 1)
        n = self.cluster.n

        def defer(reason: str) -> None:
            report.steps.append(
                MigrationStep(j, "deferred", old_m, new_m, reason)
            )

        # Full placement or defer: the flipped level must start at full
        # m_new headroom, which needs one fragment on every system.
        if self.cluster.failed_ids():
            defer(f"systems down: {self.cluster.failed_ids()}")
            return

        # 1. Read k_old clean fragments of the current generation and
        # re-encode the level tile by tile.
        sources = self._read_sources(rec, j, n - old_m, report)
        if sources is None:
            defer(f"fewer than k={n - old_m} clean source fragments")
            return
        parts: list[list[bytes]] = [[] for _ in range(n)]
        chunks: list[int] = []
        offset = 0
        try:
            for size in rec.tile_table()[2][j]:
                payload = self.codec.decode_chunk(
                    ECConfig(n, old_m), sources, offset, size, level_index=j
                )
                offset += size
                enc = self.codec.encode_level(payload, new_m, level_index=j)
                for part, blob in zip(parts, enc.fragment_blobs()):
                    part.append(blob)
                chunks.append(enc.fragment_nbytes)
        except FRAGMENT_ERRORS as exc:
            defer(f"decode failed: {exc!r}")
            return
        self._checkpoint(checkpoint, "decoded", j)

        # 2. Stage the new generation (shadow state).
        blobs = [b"".join(part) for part in parts]
        checksums = [crc32(blob) for blob in blobs]
        staged: list[int] = []
        for idx, blob in enumerate(blobs):
            if not self._write_staged(sname_new, j, idx, blob, checksums[idx], report):
                self._cleanup_staged(sname_new, j, staged)
                defer("staging write failed")
                return
            staged.append(idx)
        self._checkpoint(checkpoint, "staged", j)

        # 3. Verify every staged fragment at rest — still invisible to
        # readers.
        if not self._verify_staged(sname_new, j, checksums):
            self._cleanup_staged(sname_new, j, staged)
            defer("staged fragment failed read-back verification")
            return

        # 4. Flip: one object-record write switches ft_config[j], the
        # generation and the fragment set together.  Readers go through
        # this record, so the transition is atomic from their point of
        # view.
        gens = rec.generations
        gens[j] = gen + 1
        rec.extra["generations"] = gens
        rec.ft_config[j] = new_m
        rec.checksums[j] = checksums
        rec.fragment_sizes[j] = [len(b) for b in blobs]
        rec.placements[j] = list(range(n))
        rec.set_chunks(j, chunks)
        try:
            self.catalog.put_object(rec)
        except FRAGMENT_ERRORS as exc:
            self._cleanup_staged(sname_new, j, staged)
            defer(f"flip write failed: {exc!r}")
            return
        self._checkpoint(checkpoint, "flipped", j)

        # 5. Post-flip, best-effort: the new generation starts at full
        # m_new headroom, and the old one is retired.
        try:
            self.ledger.clear(name, j)
        except FRAGMENT_ERRORS:
            pass  # headroom is advisory; the next scrub rewrites it
        self._retire(sname_old, j)
        self._checkpoint(checkpoint, "retired", j)
        report.steps.append(MigrationStep(j, "migrated", old_m, new_m))

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _checkpoint(checkpoint, stage: str, level: int) -> None:
        if checkpoint is not None:
            checkpoint(stage, level)

    def _read_sources(
        self, rec, j: int, k: int, report: MigrationReport
    ) -> dict[int, np.ndarray] | None:
        """``k`` fragments of the current generation, each one verified
        read on the system the record places it on."""
        sname = rec.level_storage_name(j)
        sources: dict[int, np.ndarray] = {}
        for idx in sorted(self.cluster.locate(sname, j)):
            if len(sources) >= k:
                break
            out = self.retry_policy.call(
                lambda: self.cluster.fetch(
                    sname, j, idx, home=rec.placements[j][idx],
                    crc=rec.checksums[j][idx],
                ).payload,
                retry_on=FRAGMENT_ERRORS,
            )
            if not out.ok:
                continue
            sources[idx] = np.frombuffer(out.value, dtype=np.uint8)
            report.read_bytes += float(len(out.value))
            self._requests.append(
                TransferRequest(idx, float(len(out.value)),
                                tag=("migrate-read", j, idx))
            )
        return sources if len(sources) >= k else None

    def _write_staged(
        self, sname: str, j: int, idx: int, blob: bytes, checksum: int,
        report: MigrationReport,
    ) -> bool:
        frag = StoredFragment(sname, j, idx, len(blob), blob, checksum=checksum)
        out = self.retry_policy.call(
            lambda: self.cluster[idx].put(frag), retry_on=FRAGMENT_ERRORS
        )
        if out.ok:
            report.written_bytes += float(len(blob))
            self._requests.append(
                TransferRequest(idx, float(len(blob)),
                                tag=("migrate-write", j, idx))
            )
        return out.ok

    def _verify_staged(
        self, sname: str, j: int, checksums: list[int]
    ) -> bool:
        for idx, crc in enumerate(checksums):
            out = self.retry_policy.call(
                lambda: self.cluster[idx].get_verified(sname, j, idx, crc),
                retry_on=FRAGMENT_ERRORS,
            )
            if not out.ok or out.value.payload is None:
                return False
        return True

    def _cleanup_staged(self, sname: str, j: int, staged: list[int]) -> None:
        """Best-effort removal of a failed staging attempt's fragments.

        A fragment stuck on an unreachable system is harmless: the next
        attempt at this generation overwrites it with identical bytes
        (the re-encode is deterministic), and no reader resolves the
        staging name until a flip commits it.
        """
        for idx in staged:
            try:
                system = self.cluster[idx]
                if system.available and system.has(sname, j, idx):
                    system.delete(sname, j, idx)
            except FRAGMENT_ERRORS:
                pass

    def _retire(self, sname: str, j: int) -> None:
        """Delete the previous generation's fragments."""
        for idx, sids in self.cluster.inventory().holders(sname, j).items():
            for sid in sids:
                try:
                    self.cluster[sid].delete(sname, j, idx)
                except FRAGMENT_ERRORS:
                    pass


# -- recoverability probes (used by tests and the scenario gate) -----------


def level_recoverable(rapids, name: str, level: int) -> bool:
    """Can ``level`` be decoded right now (>= k reachable fragments of
    the generation the object record points at)?

    A cheap presence probe — no payload reads — used to check the
    migration safety invariant between protocol steps.
    """
    rec = rapids.catalog.get_object(name)
    sname = rec.level_storage_name(level)
    k = rapids.cluster.n - int(rec.ft_config[level])
    return len(rapids.cluster.locate(sname, level)) >= k


def safety_breaches(rapids, name: str) -> list[int]:
    """Levels below their design availability *due to the system itself*.

    A level is breached when it is unrecoverable even though the number
    of concurrent outages is within its design tolerance ``m_j`` — i.e.
    the environment did not exceed the design point, so the loss is
    attributable to reconfiguration/migration, not to fate.  The
    scenario suite requires this list to stay empty at every epoch.
    """
    rec = rapids.catalog.get_object(name)
    down = len(rapids.cluster.failed_ids())
    return [
        j
        for j, m in enumerate(rec.ft_config)
        if down <= int(m) and not level_recoverable(rapids, name, j)
    ]

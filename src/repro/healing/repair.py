"""Anti-entropy repair: regenerate exactly what the scrubber found lost.

The engine consumes a :class:`~repro.healing.scrubber.ScrubReport` and
returns every damaged level to full n-fragment redundancy:

* stripes are repaired in durability-risk order — smallest ledger
  headroom first (closest to unrecoverable), then level index (coarser
  levels matter more to progressive reconstruction);
* a stale copy that still matches the ledger CRC is *adopted* (metadata
  update, no data movement); redundant stale copies are cleared;
* a stripe's new placements and headroom are committed with one
  :meth:`~repro.healing.ledger.DurabilityLedger.record` when it is done;
* lost fragments are regenerated over the minimal-read path: exactly
  ``k`` clean CRC-verified source fragments per stripe feed the cached
  single-row :meth:`~repro.ec.codec.ErasureCodec.repair_fragment`
  plans, however many targets the stripe needs;
* regenerated fragments are re-placed on the least-loaded healthy
  system not already hosting the stripe, preferring the original home;
* every read and write runs under the :class:`RetryPolicy` and is
  charged to the WAN transfer model (one request per attempt), so
  repair traffic shows up in the same latency accounting as restores;
* a pass plans from one :class:`~repro.storage.cluster.Inventory`
  snapshot, re-probed one fragment on one system at a time after each
  of its own writes and deletes (a failed write may leave a torn file).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from ..chaos.retry import RetryPolicy
from ..ec import ECConfig, ErasureCodec
from ..formats import verify
from ..storage.cluster import Inventory
from ..storage.system import FRAGMENT_ERRORS, CorruptFragmentError, StoredFragment
from ..transfer import TransferRequest, phase_latency
from .ledger import DurabilityLedger, LedgerEntry
from .scrubber import Damage, ScrubReport, Scrubber

__all__ = ["RepairEngine", "RepairReport", "RepairAction", "scrub_and_repair"]


@dataclass
class RepairAction:
    """One executed (or, under ``dry_run``, planned) repair step."""

    object_name: str
    level: int
    index: int
    kind: str  # "regenerated" | "adopted" | "cleared-stale"
    system_id: int  # target (regenerated/adopted) or cleared holder
    sources: list[int] = field(default_factory=list)
    nbytes: int = 0


@dataclass
class RepairReport:
    """What a repair pass did, and what it cost on the WAN."""

    actions: list[RepairAction] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    dry_run: bool = False
    read_bytes: float = 0.0
    written_bytes: float = 0.0
    read_attempts: int = 0
    transfer_latency: float = 0.0

    @property
    def repaired(self) -> int:
        return sum(1 for a in self.actions if a.kind in ("regenerated", "adopted"))

    def counts(self) -> dict:
        out: dict[str, int] = {}
        for a in self.actions:
            out[a.kind] = out.get(a.kind, 0) + 1
        return out

    def to_dict(self) -> dict:
        d = asdict(self)
        d["counts"] = self.counts()
        return d

    def describe(self) -> str:
        verb = "would repair" if self.dry_run else "repaired"
        lines = [
            f"{verb} {self.repaired} fragment(s) "
            f"({', '.join(f'{k}: {v}' for k, v in sorted(self.counts().items())) or 'nothing to do'})"
        ]
        lines.append(
            f"  WAN: {self.read_bytes:.0f} B read, "
            f"{self.written_bytes:.0f} B written, "
            f"latency {self.transfer_latency:.3f} s"
        )
        for msg in self.failures:
            lines.append(f"  FAILED {msg}")
        return "\n".join(lines)


class RepairEngine:
    """Regenerates damaged fragments and restores ledger redundancy.

    Parameters
    ----------
    cluster, catalog, ledger:
        The storage/metadata stack being healed.

    Every repair read and write gets three immediate attempts, matching
    restore.
    """

    def __init__(self, cluster, catalog, ledger: DurabilityLedger) -> None:
        self.cluster = cluster
        self.catalog = catalog
        self.ledger = ledger
        self.retry_policy = RetryPolicy(max_attempts=3, base=0.0)
        self.codec = ErasureCodec(cluster.n)
        self._requests: list[TransferRequest] = []
        #: The current pass's snapshot, kept true to the store.
        self.inventory: Inventory | None = None

    # -- public ------------------------------------------------------------

    def repair(
        self,
        damage: "ScrubReport | list[Damage]",
        *,
        dry_run: bool = False,
    ) -> RepairReport:
        """Heal the damage a scrub found, riskiest stripes first."""
        items = damage.damage if isinstance(damage, ScrubReport) else list(damage)
        report = RepairReport(dry_run=dry_run)
        self._requests = []
        self.inventory = self.cluster.inventory()
        for entry, damaged, stale in self._prioritised(items):
            self._repair_stripe(entry, damaged, stale, report, dry_run)
        if self._requests:
            res = phase_latency(self._requests, self.cluster.bandwidths)
            report.transfer_latency = float(res.makespan)
        return report

    # -- prioritisation ----------------------------------------------------

    def _prioritised(self, items: list[Damage]):
        """Group damage per stripe, ordered by durability risk."""
        grouped: dict[tuple[str, int], dict] = {}
        for d in items:
            g = grouped.setdefault(
                (d.object_name, d.level), {"damaged": set(), "stale": {}}
            )
            if d.kind in ("missing", "corrupt"):
                g["damaged"].add(d.index)
            elif d.kind == "stale-placement":
                g["stale"].setdefault(d.index, []).append(d.system_id)
        ordered = []
        for (name, level), g in grouped.items():
            entry = self.ledger.get(name, level)
            if entry is None:
                continue  # nothing authoritative to heal against
            ordered.append((entry, g["damaged"], g["stale"]))
        # Smallest headroom first (closest to losing recoverability),
        # then level importance: coarser levels gate every finer one.
        ordered.sort(key=lambda t: (t[0].headroom, t[0].level))
        return ordered

    # -- per-stripe repair -------------------------------------------------

    def _repair_stripe(
        self,
        entry: LedgerEntry,
        damaged: set[int],
        stale: dict[int, list[int]],
        report: RepairReport,
        dry_run: bool,
    ) -> None:
        name, level = entry.store_name, entry.level
        damaged = set(damaged)

        # 1. Adopt or clear stale copies.  An index whose authoritative
        # home lost its copy but with a CRC-valid copy elsewhere needs a
        # metadata fix, not reconstruction.
        for index, holders in sorted(stale.items()):
            home_ok = index not in damaged and (
                entry.placement[index] in self._holders(entry, index)
            )
            adopted = home_ok
            for sid in holders:
                if not adopted:
                    payload = self._read_verified(entry, index, sid, report)
                    if payload is not None:
                        if not dry_run:
                            entry.placement[index] = sid
                        report.actions.append(
                            RepairAction(name, level, index, "adopted", sid,
                                         nbytes=entry.nbytes[index])
                        )
                        adopted = True
                        continue
                if not dry_run:
                    self._clear_copy(name, level, index, sid)
                report.actions.append(
                    RepairAction(name, level, index, "cleared-stale", sid)
                )
            if not adopted and not home_ok:
                damaged.add(index)  # every stale copy was rotten too

        # 2. Regenerate what is actually lost, from exactly k clean
        # sources shared across all of the stripe's targets.
        unrepaired = (
            self._regenerate(entry, damaged, report, dry_run) if damaged else ()
        )
        if not dry_run:
            entry.headroom = entry.m - len(unrepaired)
            self.ledger.record(entry)

    def _regenerate(
        self,
        entry: LedgerEntry,
        damaged: set[int],
        report: RepairReport,
        dry_run: bool,
    ) -> set[int]:
        """Rebuild ``damaged`` from k shared sources; returns the indices
        left unrepaired."""
        name, level = entry.store_name, entry.level
        cfg = ECConfig(entry.n, entry.m)
        sources = self._gather_sources(entry, damaged, cfg.k, report)
        if sources is None:
            report.failures.append(
                f"{name!r} level {level}: fewer than k={cfg.k} clean "
                f"fragments survive — {sorted(damaged)} unrecoverable"
            )
            return damaged
        unrepaired: set[int] = set()
        for index in sorted(damaged):
            rebuilt = self.codec.repair_fragment(cfg, sources, index)
            blob = np.ascontiguousarray(rebuilt).tobytes()
            if not verify(blob, entry.checksums[index]):
                report.failures.append(
                    f"{name!r} level {level} fragment {index}: "
                    "reconstruction does not match the ledger checksum"
                )
                unrepaired.add(index)
                continue
            target = self._place(entry, index, blob, dry_run, report)
            if target is None:
                unrepaired.add(index)
                continue
            report.actions.append(
                RepairAction(name, level, index, "regenerated", target,
                             sources=sorted(sources), nbytes=len(blob))
            )
        return unrepaired

    def _holders(self, entry: LedgerEntry, index: int) -> list[int]:
        """Ascending ids of the available systems holding a copy."""
        return self.inventory.holders(
            entry.store_name, entry.level
        ).get(index, [])

    def _clear_copy(self, name: str, level: int, index: int, sid: int) -> None:
        system = self.cluster[sid]
        try:
            if sid in self.inventory.available:
                system.delete(name, level, index)
        except FRAGMENT_ERRORS:
            pass  # an unreachable stale copy is next sweep's problem
        self.inventory.refresh(system, name, level, index)

    # -- reads -------------------------------------------------------------

    def _read_verified(
        self, entry: LedgerEntry, index: int, system_id: int,
        report: RepairReport,
    ) -> bytes | None:
        """Fetch one fragment under retry; None unless it matches the ledger."""
        system = self.cluster[system_id]

        def attempt() -> bytes:
            frag = system.get_verified(
                entry.store_name, entry.level, index, entry.checksums[index]
            )
            if frag.payload is None:
                raise CorruptFragmentError(
                    f"fragment {index} on system {system_id} has no payload"
                )
            return frag.payload

        out = self.retry_policy.call(attempt, retry_on=FRAGMENT_ERRORS)
        report.read_attempts += out.attempts
        report.read_bytes += float(entry.nbytes[index]) * out.attempts
        for _ in range(out.attempts):
            self._requests.append(
                TransferRequest(system_id, float(entry.nbytes[index]),
                                tag=("repair-read", entry.level, index))
            )
        return out.value if out.ok else None

    def _gather_sources(
        self, entry: LedgerEntry, damaged: set[int], k: int,
        report: RepairReport,
    ) -> dict[int, np.ndarray] | None:
        """Exactly ``k`` clean fragments (more only if reads fail)."""
        sources: dict[int, np.ndarray] = {}
        for index in range(entry.n):
            if len(sources) >= k:
                break
            if index in damaged:
                continue
            sid = self._holder_of(entry, index)
            if sid is None:
                continue
            payload = self._read_verified(entry, index, sid, report)
            if payload is not None:
                sources[index] = np.frombuffer(payload, dtype=np.uint8)
        return sources if len(sources) >= k else None

    def _holder_of(self, entry: LedgerEntry, index: int) -> int | None:
        holders = self._holders(entry, index)
        if entry.placement[index] in holders:
            return entry.placement[index]
        return holders[0] if holders else None

    # -- placement ---------------------------------------------------------

    def _place(
        self, entry: LedgerEntry, index: int, blob: bytes,
        dry_run: bool, report: RepairReport,
    ) -> int | None:
        """Write one regenerated fragment; returns the system it landed on."""
        for target in self._target_candidates(entry, index):
            if dry_run:
                return target
            if self._write_fragment(entry, index, blob, target, report):
                entry.placement[index] = target
                # Any other resident copy of this index is the damaged
                # one we just regenerated around (e.g. the corrupt copy
                # at the old home): clear it now rather than leaving a
                # stale-placement finding for the next sweep.  A torn
                # file a failed attempt left elsewhere goes the same way.
                for sid in self._holders(entry, index):
                    if sid != target:
                        self._clear_copy(
                            entry.store_name, entry.level, index, sid
                        )
                return target
        report.failures.append(
            f"{entry.object_name!r} level {entry.level} fragment {index}: "
            "no system could take the regenerated fragment"
        )
        return None

    def _target_candidates(self, entry: LedgerEntry, index: int):
        """Target systems in preference order.

        Home first; then the least-loaded system hosting nothing of this
        stripe; as a last resort — a stripe as wide as the cluster with
        outages leaves no empty system — any available system that does not already hold *this*
        fragment, trading placement independence for durability.
        """
        inv = self.inventory
        home = entry.placement[index]
        # Systems hosting *other* fragments of this stripe; a system
        # holding only this index's (corrupt) copy may be overwritten.
        occupied = {
            sid
            for idx, sid in inv.locate(entry.store_name, entry.level).items()
            if idx != index
        }
        yielded: set[int] = set()

        def least_loaded(sid: int) -> tuple[int, int]:
            return inv.used_bytes[sid], sid

        if home in inv.available and home not in occupied:
            yielded.add(home)
            yield home
        for sid in sorted(
            inv.available - occupied - yielded, key=least_loaded
        )[:1]:
            yielded.add(sid)
            yield sid
        # Read the snapshot only now: failed attempts above may have
        # left torn copies of this index behind.
        yield from sorted(
            inv.available - yielded - set(self._holders(entry, index)),
            key=least_loaded,
        )

    def _write_fragment(
        self, entry: LedgerEntry, index: int, blob: bytes, target: int,
        report: RepairReport,
    ) -> bool:
        frag = StoredFragment(
            entry.store_name, entry.level, index,
            len(blob), blob, checksum=entry.checksums[index],
        )
        out = self.retry_policy.call(
            lambda: self.cluster[target].put(frag), retry_on=FRAGMENT_ERRORS
        )
        # Whatever the attempts left on the target — the fragment, a
        # torn prefix of it, the old copy — is what the pass now sees.
        self.inventory.refresh(
            self.cluster[target], entry.store_name, entry.level, index
        )
        for _ in range(out.attempts):
            self._requests.append(
                TransferRequest(target, float(entry.nbytes[index]),
                                tag=("repair-write", entry.level, index))
            )
        if out.ok:
            report.written_bytes += float(entry.nbytes[index])
        return out.ok


def scrub_and_repair(
    cluster,
    catalog,
    *,
    ledger: DurabilityLedger | None = None,
    max_fragments: int | None = None,
    repair: bool = True,
    dry_run: bool = False,
) -> tuple[ScrubReport, RepairReport | None]:
    """One anti-entropy pass: scrub, then (optionally) repair.

    Returns the scrub report and — when ``repair`` and damage was found
    — the repair report.
    """
    ledger = ledger or DurabilityLedger(catalog)
    scrub = Scrubber(cluster, ledger, max_fragments=max_fragments).run()
    rep = None
    if repair and scrub.damage:
        engine = RepairEngine(cluster, catalog, ledger)
        rep = engine.repair(scrub, dry_run=dry_run)
    return scrub, rep

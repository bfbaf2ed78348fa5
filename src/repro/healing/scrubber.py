"""Integrity scrubbing: sweep storage at rest against the ledger.

The scrubber walks the durability ledger in key order, checks every
expected fragment on the cluster, and classifies damage:

* ``missing``          — no available system holds the fragment;
* ``corrupt``          — the authoritative copy exists but fails CRC
  verification against the ledger (bit rot, truncation, torn write);
* ``stale-placement``  — a copy lives on a system the ledger does not
  consider the fragment's home (left behind by a past repair or an
  operator move).

Every fragment read goes through the normal storage read path — chaos
injector seam, store-level checksum, ``RetryPolicy`` — so scrubbing
itself tolerates transient faults and never propagates corrupt bytes.

The sweep is incremental and crash-resumable: a cursor persisted in the
kvstore (key ``scrub/cursor``) records the next stripe to scan, and
``max_fragments`` bounds each run so scrubbing can be rate-limited
alongside production traffic.  A run always finishes the stripe it
started (damage classification is per-stripe), then checkpoints.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from ..chaos.retry import RetryPolicy
from ..storage.cluster import Inventory
from ..storage.system import FRAGMENT_ERRORS, UnavailableError
from .ledger import DurabilityLedger, LedgerEntry

__all__ = ["Scrubber", "ScrubReport", "Damage"]

CURSOR_KEY = b"scrub/cursor"


@dataclass(frozen=True)
class Damage:
    """One damaged (or misplaced) fragment found by the scrubber."""

    object_name: str
    level: int
    index: int
    kind: str  # "missing" | "corrupt" | "stale-placement"
    system_id: int  # holder (stale/corrupt) or expected home (missing)
    detail: str = ""

    def describe(self) -> str:
        return (
            f"{self.kind}: {self.object_name!r} level {self.level} "
            f"fragment {self.index} (system {self.system_id})"
            + (f" — {self.detail}" if self.detail else "")
        )


@dataclass
class ScrubReport:
    """What one scrub run examined and found."""

    stripes_scanned: int = 0
    fragments_scanned: int = 0
    verified: int = 0
    damage: list[Damage] = field(default_factory=list)
    complete: bool = True     # False: stopped at the rate limit
    resumed: bool = False     # True: started from a persisted cursor
    read_bytes: float = 0.0   # bytes pulled at rest (retries included)
    read_attempts: int = 0

    @property
    def clean(self) -> bool:
        return not self.damage

    def counts(self) -> dict:
        out: dict[str, int] = {}
        for d in self.damage:
            out[d.kind] = out.get(d.kind, 0) + 1
        return out

    def to_dict(self) -> dict:
        d = asdict(self)
        d["counts"] = self.counts()
        return d

    def describe(self) -> str:
        head = (
            f"scrubbed {self.fragments_scanned} fragment(s) in "
            f"{self.stripes_scanned} stripe(s): {self.verified} verified"
        )
        if not self.complete:
            head += " [rate-limited: sweep incomplete]"
        lines = [head]
        for d in self.damage:
            lines.append(f"  {d.describe()}")
        if self.clean:
            lines.append("  no damage found")
        return "\n".join(lines)


class Scrubber:
    """Incremental at-rest verification of a cluster against its ledger.

    Parameters
    ----------
    cluster:
        The storage cluster to sweep (in-memory or file-backed).
    ledger:
        The :class:`DurabilityLedger` holding the expected state.
    max_fragments:
        Rate limit — stop after roughly this many fragments per
        :meth:`run` (the stripe in progress is always finished).
        ``None`` sweeps everything.
    """

    def __init__(
        self,
        cluster,
        ledger: DurabilityLedger,
        *,
        max_fragments: int | None = None,
    ) -> None:
        if max_fragments is not None and max_fragments < 1:
            raise ValueError("max_fragments must be >= 1")
        self.cluster = cluster
        self.ledger = ledger
        #: Three immediate attempts per read, matching the restore pipeline.
        self.retry_policy = RetryPolicy(max_attempts=3, base=0.0)
        self.max_fragments = max_fragments

    # -- cursor ------------------------------------------------------------

    def _load_cursor(self) -> tuple[str, int] | None:
        raw = self.ledger.store.get(CURSOR_KEY)
        if raw is None:
            return None
        d = json.loads(raw)
        return (d["object"], int(d["level"]))

    def _save_cursor(self, object_name: str, level: int) -> None:
        self.ledger.store.put(
            CURSOR_KEY,
            json.dumps({"object": object_name, "level": level}).encode(),
        )

    def _clear_cursor(self) -> None:
        if self.ledger.store.get(CURSOR_KEY) is not None:
            self.ledger.store.delete(CURSOR_KEY)

    # -- sweep -------------------------------------------------------------

    def run(self) -> ScrubReport:
        """Scrub from the persisted cursor (or the start) onward.

        Scans ledger stripes in key order until the ledger is exhausted
        or the rate limit trips; the cursor is checkpointed after every
        stripe, so a crash mid-run loses at most the stripe in progress.
        Each scanned stripe's ledger headroom is refreshed to ``m`` minus
        its damaged fragment count.  Holders come from one inventory
        snapshot; a copy that vanishes behind it reads as ``missing``.
        """
        report = ScrubReport()
        cursor = self._load_cursor()
        entries = self.ledger.entries()
        inventory = self.cluster.inventory()
        start = 0
        if cursor is not None:
            report.resumed = True
            for pos, entry in enumerate(entries):
                if (entry.object_name, entry.level) >= cursor:
                    start = pos
                    break
            else:
                start = len(entries)
        for pos in range(start, len(entries)):
            entry = entries[pos]
            if (
                self.max_fragments is not None
                and report.fragments_scanned > 0
                and report.fragments_scanned + entry.n > self.max_fragments
            ):
                self._save_cursor(entry.object_name, entry.level)
                report.complete = False
                return report
            self._scrub_stripe(entry, inventory, report)
            if pos + 1 < len(entries):
                nxt = entries[pos + 1]
                self._save_cursor(nxt.object_name, nxt.level)
        self._clear_cursor()
        return report

    def _scrub_stripe(
        self, entry: LedgerEntry, inventory: Inventory, report: ScrubReport
    ) -> None:
        damaged_indices: set[int] = set()
        stripe = inventory.holders(entry.store_name, entry.level)
        for index in range(entry.n):
            report.fragments_scanned += 1
            home = entry.placement[index]
            holders = stripe.get(index, [])
            if home in holders:
                kind, detail = self._verify_at(entry, index, home, report)
                if kind is None:
                    report.verified += 1
                else:
                    damaged_indices.add(index)
                    report.damage.append(
                        Damage(entry.object_name, entry.level, index,
                               kind, home, detail)
                    )
                extras = [sid for sid in holders if sid != home]
            elif holders:
                # The fragment survives, just not where the ledger says:
                # durability is intact, placement is stale.  The repair
                # engine adopts (or clears) these copies.
                extras = holders
            else:
                damaged_indices.add(index)
                detail = (
                    "authoritative home unavailable"
                    if home not in inventory.available
                    else "no copy on any available system"
                )
                report.damage.append(
                    Damage(entry.object_name, entry.level, index,
                           "missing", home, detail)
                )
                extras = []
            for sid in extras:
                report.damage.append(
                    Damage(entry.object_name, entry.level, index,
                           "stale-placement", sid,
                           f"authoritative home is system {home}")
                )
        report.stripes_scanned += 1
        headroom = entry.m - len(damaged_indices)
        if headroom != entry.headroom:
            self.ledger.set_headroom(entry, headroom)

    def _verify_at(
        self, entry: LedgerEntry, index: int, system_id: int,
        report: ScrubReport,
    ) -> tuple[str | None, str]:
        """Read one fragment at rest and verify it against the ledger.

        Returns ``(None, "")`` when clean, else ``(kind, detail)``.
        """
        system = self.cluster[system_id]
        out = self.retry_policy.call(
            lambda: system.get_verified(
                entry.store_name, entry.level, index, entry.checksums[index]
            ),
            retry_on=FRAGMENT_ERRORS,
        )
        report.read_attempts += out.attempts
        report.read_bytes += float(entry.nbytes[index]) * out.attempts
        if out.ok:
            return None, ""
        if isinstance(out.error, UnavailableError):
            return "missing", "system became unavailable mid-scrub"
        if isinstance(out.error, KeyError):
            return "missing", "fragment vanished mid-scrub"
        return "corrupt", repr(out.error)

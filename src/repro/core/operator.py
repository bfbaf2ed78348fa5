"""Maintenance-aware proactive operation.

Scheduled maintenance is *known in advance* (§1 counts it among the
availability threats), which an operator can exploit: if an upcoming
window takes more systems down than a level tolerates (|W| > m_j), the
level will be unreachable for the whole window — unless its payload is
staged somewhere that stays up beforehand.

:class:`ProactiveOperator` implements that loop over an archive:

* :meth:`at_risk` — which (object, level) pairs a window would take out;
* :meth:`stage_for_window` — decode each at-risk level *now* (all
  fragments are still reachable) and park the payload on surviving
  systems as temporary staging copies, cheapest levels first, under a
  staging-capacity budget;
* :meth:`restore_with_staging` — restoration that falls back to staged
  payloads for levels the cluster cannot serve;
* :meth:`unstage` — drop the staging copies once the window passes.

Staging the top levels is cheap (s_1 << s_l) and protects exactly the
accuracy the paper's hierarchy prioritises, so the operator degrades
the window's impact instead of going dark.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..storage import MaintenanceSchedule, StoredFragment
from .archive import Archive

__all__ = ["StagedCopy", "ProactiveOperator"]

#: Object-name prefix marking staged payload copies in the cluster.
_STAGE_PREFIX = "__staged__/"


@dataclass(frozen=True)
class StagedCopy:
    """One staged level payload: where it is parked."""

    object_name: str
    level: int
    system_id: int
    nbytes: int


@dataclass
class ProactiveOperator:
    """Operates an archive against a maintenance calendar."""

    archive: Archive
    schedule: MaintenanceSchedule
    staged: list[StagedCopy] = field(default_factory=list)

    # -- risk analysis -----------------------------------------------------

    def window_systems(self, start: float, end: float) -> list[int]:
        """Systems down at any point during [start, end)."""
        down: set[int] = set()
        for sid, windows in self.schedule.windows.items():
            if any(s < end and e > start for s, e in windows):
                down.add(sid)
        return sorted(down)

    def at_risk(self, start: float, end: float) -> list[tuple[str, int]]:
        """(object, level) pairs unrecoverable during the window."""
        down = set(self.window_systems(start, end))
        out = []
        for name in self.archive.names():
            rec = self.archive.rapids.catalog.get_object(name)
            for j, m in enumerate(rec.ft_config):
                if len(down) > m:
                    out.append((name, j))
        return out

    # -- staging ------------------------------------------------------------

    def stage_for_window(
        self, start: float, end: float, *, budget_bytes: float = float("inf")
    ) -> list[StagedCopy]:
        """Stage at-risk levels on surviving systems before the window.

        Levels are staged cheapest-first (the paper's hierarchy makes the
        top levels both cheapest and most valuable per byte), stopping at
        ``budget_bytes``.  Returns the copies created in this call.
        """
        if budget_bytes <= 0:
            raise ValueError("budget_bytes must be positive")
        down = set(self.window_systems(start, end))
        cluster = self.archive.rapids.cluster
        survivors = [s for s in cluster.available_ids() if s not in down]
        if not survivors:
            raise RuntimeError("no system survives the window; cannot stage")
        rapids = self.archive.rapids
        todo = []
        for name, level in self.at_risk(start, end):
            rec = rapids.catalog.get_object(name)
            todo.append((rec.level_sizes[level], name, level))
        todo.sort()
        created: list[StagedCopy] = []
        spent = 0.0
        rr = 0
        already = {(c.object_name, c.level) for c in self.staged}
        for size, name, level in todo:
            if (name, level) in already:
                continue
            if spent + size > budget_bytes:
                continue
            payload = self._decode_level(name, level)
            target = survivors[rr % len(survivors)]
            rr += 1
            cluster[target].put(
                StoredFragment(
                    _STAGE_PREFIX + name, level, 0, len(payload), payload
                )
            )
            copy = StagedCopy(name, level, target, len(payload))
            created.append(copy)
            self.staged.append(copy)
            spent += size
        return created

    def _decode_level(self, name: str, level: int) -> bytes:
        from ..ec import ECConfig

        rapids = self.archive.rapids
        rec = rapids.catalog.get_object(name)
        cfg = ECConfig(rapids.cluster.n, rec.ft_config[level])
        sname = rec.level_storage_name(level)
        present = rapids.cluster.locate(sname, level)
        idx = sorted(present)[: cfg.k]
        if len(idx) < cfg.k:
            raise RuntimeError(
                f"level {level} of {name!r} already unrecoverable"
            )
        frags = {
            i: np.frombuffer(
                # rapidslint: disable-next=RPD111 -- fetch() goes through StorageSystem.get, which raises CorruptFragmentError on CRC mismatch
                rapids.cluster.fetch(sname, level, i).payload, np.uint8
            )
            for i in idx
        }
        return rapids.codec.decode_level(config=cfg, fragments=frags)

    # -- window-time restoration ----------------------------------------------

    def staged_payload(self, name: str, level: int) -> bytes | None:
        """Fetch a staged copy if one is reachable."""
        cluster = self.archive.rapids.cluster
        for copy in self.staged:
            if copy.object_name != name or copy.level != level:
                continue
            sys = cluster[copy.system_id]
            if sys.available and sys.has(_STAGE_PREFIX + name, level, 0):
                # rapidslint: disable-next=RPD111 -- StorageSystem.get verifies the stored CRC before returning the payload
                return sys.get(_STAGE_PREFIX + name, level, 0).payload
        return None

    def restore_with_staging(self, name: str):
        """Restore using fragments where possible and staged payloads for
        levels the failures took out.  Returns (data, levels_used)."""
        rapids = self.archive.rapids
        rec = rapids.catalog.get_object(name)
        from ..ec import ECConfig
        from .gathering import recoverable_levels

        failed = rapids.cluster.failed_ids()
        reachable = set(
            recoverable_levels(rec.ft_config, failed, rapids.cluster.n)
        )
        payloads: list[bytes] = []
        for j in range(rec.num_levels):
            if j in reachable:
                payloads.append(self._decode_level(name, j))
                continue
            staged = self.staged_payload(name, j)
            if staged is None:
                break  # components must form a prefix
            payloads.append(staged)
        if not payloads:
            return None, 0
        return rapids._reconstruct_tiles(
            rec, list(range(len(payloads))), [[p] for p in payloads],
            processes=1, degrade=False, failures=[],
        )

    # -- cleanup ---------------------------------------------------------------

    def unstage(self) -> int:
        """Delete every staged copy that is still reachable; returns count."""
        cluster = self.archive.rapids.cluster
        removed = 0
        remaining = []
        for copy in self.staged:
            sys = cluster[copy.system_id]
            if sys.available and sys.has(
                _STAGE_PREFIX + copy.object_name, copy.level, 0
            ):
                sys.delete(_STAGE_PREFIX + copy.object_name, copy.level, 0)
                removed += 1
            else:
                remaining.append(copy)
        self.staged = remaining
        return removed

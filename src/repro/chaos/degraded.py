"""Structured degraded-restore reports.

When faults exceed a level's fault tolerance ``m_j``, ``RAPIDS.restore``
no longer raises: it returns the deepest recoverable level prefix with
its recorded error bound plus a :class:`DegradedRestore` report saying
exactly what failed, what was retried, and what was abandoned — the
machine-readable half of the availability guarantee (paper Eqs. 4/5).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

__all__ = ["DegradedRestore", "LevelFailure"]


@dataclass
class LevelFailure:
    """Why one level (or pipeline stage) could not be restored."""

    level: int  # -1 for object-wide stages (metadata, pipeline)
    stage: str  # "metadata" | "gather" | "decode" | "pipeline"
    error: str
    attempts: int = 1
    retried: bool = False

    def describe(self) -> str:
        where = f"level {self.level}" if self.level >= 0 else "object"
        retry = f" after {self.attempts} attempts" if self.retried else ""
        return f"{where} [{self.stage}]{retry}: {self.error}"


@dataclass
class DegradedRestore:
    """What a faulted restoration actually delivered.

    ``recovered_levels`` is always a prefix of ``requested_levels``
    (progressive reconstruction needs every coarser level below a
    refinement), ``error_bound`` is the recorded bound of the deepest
    recovered level (``None`` when nothing was recoverable), and
    ``failures`` explains each abandonment.
    """

    name: str
    requested_levels: list[int] = field(default_factory=list)
    recovered_levels: list[int] = field(default_factory=list)
    abandoned_levels: list[int] = field(default_factory=list)
    failures: list[LevelFailure] = field(default_factory=list)
    error_bound: float | None = None
    injected_faults: dict = field(default_factory=dict)
    #: Fragments whose payload failed CRC verification during this
    #: restore and were absorbed as erasures (spares or EC parity).
    corrupt_fragments: int = 0

    @property
    def degraded(self) -> bool:
        return bool(self.failures) or bool(self.abandoned_levels)

    def to_dict(self) -> dict:
        return asdict(self)

    def describe(self) -> str:
        lines = [
            f"degraded restore of {self.name!r}: "
            f"{len(self.recovered_levels)}/{len(self.requested_levels)} "
            f"level(s) recovered"
        ]
        if self.error_bound is not None:
            lines.append(f"  error bound of recovered prefix: {self.error_bound:.3e}")
        else:
            lines.append("  nothing recoverable")
        for fail in self.failures:
            lines.append(f"  FAILED {fail.describe()}")
        if self.abandoned_levels:
            lines.append(f"  abandoned levels: {self.abandoned_levels}")
        if self.corrupt_fragments:
            lines.append(
                f"  {self.corrupt_fragments} corrupt fragment(s) treated as erasures"
            )
        for key, count in sorted(self.injected_faults.items()):
            lines.append(f"  injected {key} x{count}")
        return "\n".join(lines)

"""Deterministic, seedable fault plans.

A :class:`FaultPlan` is a declarative schedule of fault events — which
I/O seams misbehave, how, and when — plus the seed that makes every
probabilistic decision reproducible.  The plan is pure data: it can be
serialised to JSON, checked into a bug report, and replayed bit-for-bit
with ``rapids chaos --plan plan.json``.  The runtime half lives in
:class:`repro.chaos.injector.FaultInjector`, which consults the plan at
every instrumented operation site.

The replay contract: identical ``(seed, specs)`` fed to a
:class:`FaultInjector` over an identical operation sequence produce an
identical fault sequence — decisions are derived by hashing
``(seed, spec, op key, occurrence)``, never from shared-RNG call order,
so thread interleaving cannot perturb them.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from numbers import Integral
from pathlib import Path

__all__ = ["FaultSpec", "FaultPlan", "SITES", "EFFECTS"]

#: Operation sites a spec may target.  Each maps to one instrumented
#: seam; ``pipeline.*`` are phase-boundary checks inside RAPIDS itself.
SITES = frozenset(
    {
        "storage.read",
        "storage.write",
        "filestore.read",
        "filestore.write",
        "kvstore.get",
        "kvstore.put",
        "kvstore.fsync",
        "ec.decode",
        "system.outage",
        "pipeline.prepare",
        "pipeline.restore",
        "service.admit",
        "service.dequeue",
        "service.journal",
    }
)

#: What happens when a spec fires.
#:
#: * ``error``    — the operation raises :class:`InjectedFault`;
#: * ``corrupt``  — payload bytes are flipped (bit rot);
#: * ``truncate`` — the payload loses its tail (partial read/transfer);
#: * ``torn``     — a write persists only a prefix, then crashes;
#: * ``outage``   — the targeted storage system is down from the start.
EFFECTS = frozenset({"error", "corrupt", "truncate", "torn", "outage"})

#: Effects that only make sense for a given site family.
_SITE_EFFECTS = {
    "system.outage": {"outage"},
    "kvstore.put": {"error", "torn"},
    "kvstore.fsync": {"error"},
    "kvstore.get": {"error"},
    "ec.decode": {"error"},
    "pipeline.prepare": {"error"},
    "pipeline.restore": {"error"},
    "storage.write": {"error", "torn"},
    "filestore.write": {"error", "torn"},
    "storage.read": {"error", "corrupt", "truncate"},
    "filestore.read": {"error", "corrupt", "truncate"},
    # Archive-service seams: admission shedding, dispatcher failures,
    # and journal-write faults (the crash between journal and commit).
    "service.admit": {"error"},
    "service.dequeue": {"error"},
    "service.journal": {"error"},
}


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule: *at this site, under these conditions, do this*.

    Parameters
    ----------
    site:
        Operation site (see :data:`SITES`).
    effect:
        What firing does (see :data:`EFFECTS`).
    probability:
        Chance the spec fires at a matching occurrence; draws are
        derived from the plan seed + op identity, so they replay.
    where:
        Exact-match filters on the operation context, e.g.
        ``{"system_id": 3}`` or ``{"level": 1}``.  Empty matches all.
    start, stop:
        Occurrence window ``[start, stop)`` — the spec only fires on
        matching occurrences inside it (``stop=None`` is unbounded).
        With ``scope="key"`` occurrences count per distinct op key
        (e.g. retries of one fragment heal after ``stop`` attempts);
        with ``scope="site"`` they count across the whole site.
        A ``system.outage`` spec takes no window: outages are resolved
        once, before the run.  Its ``where`` names the system it takes
        down (``system_id``, an int >= 0).
    max_fires:
        Total firing cap across the run (``None`` = unlimited).
    magnitude:
        Effect-specific knob: the number of corrupted bytes, or the
        fraction kept by ``truncate``/``torn``.
    scope:
        Occurrence-counter granularity, ``"key"`` or ``"site"``.
    """

    site: str
    effect: str = "error"
    probability: float = 1.0
    where: dict = field(default_factory=dict)
    start: int = 0
    stop: int | None = None
    max_fires: int | None = None
    magnitude: float = 1.0
    scope: str = "key"

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(f"unknown fault site {self.site!r}")
        if self.effect not in EFFECTS:
            raise ValueError(f"unknown fault effect {self.effect!r}")
        allowed = _SITE_EFFECTS.get(self.site, EFFECTS)
        if self.effect not in allowed:
            raise ValueError(
                f"effect {self.effect!r} is not valid at site {self.site!r} "
                f"(allowed: {sorted(allowed)})"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.start < 0:
            raise ValueError("start must be >= 0")
        if self.stop is not None and self.stop <= self.start:
            raise ValueError("stop must be > start")
        if self.site == "system.outage" and (self.start or self.stop is not None):
            raise ValueError(
                "a system.outage spec takes no start/stop window: "
                "outages are resolved once, before the run"
            )
        if self.site == "system.outage":
            sid = self.where.get("system_id")
            if isinstance(sid, bool) or not isinstance(sid, Integral) or sid < 0:
                raise ValueError(
                    "a system.outage spec names one system: where.system_id "
                    f"must be an int >= 0, got {sid!r}"
                )
        if self.max_fires is not None and self.max_fires < 1:
            raise ValueError("max_fires must be >= 1")
        if self.magnitude < 0:
            raise ValueError("magnitude must be >= 0")
        if self.scope not in ("key", "site"):
            raise ValueError(f"scope must be 'key' or 'site', got {self.scope!r}")

    def matches(self, ctx: dict) -> bool:
        """Does this spec apply to an operation with context ``ctx``?"""
        return all(ctx.get(k) == v for k, v in self.where.items())

    def describe(self) -> str:
        parts = [f"{self.site}:{self.effect}"]
        if self.probability < 1.0:
            parts.append(f"p={self.probability:g}")
        if self.where:
            parts.append(",".join(f"{k}={v}" for k, v in sorted(self.where.items())))
        if self.start or self.stop is not None:
            parts.append(f"occ[{self.start},{self.stop if self.stop is not None else '∞'})")
        if self.max_fires is not None:
            parts.append(f"max={self.max_fires}")
        return " ".join(parts)


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus an ordered tuple of :class:`FaultSpec` rules.

    The pair ``(seed, specs)`` fully determines every injected fault:
    chaos failures reproduce from the plan alone (save it with
    :meth:`save`, replay with ``rapids chaos --plan``).
    """

    seed: int = 0
    specs: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    # -- construction ------------------------------------------------------

    @classmethod
    def outages(cls, system_ids, *, seed: int = 0, extra=()) -> "FaultPlan":
        """A plan that simply takes ``system_ids`` down from the start."""
        specs = tuple(
            FaultSpec(site="system.outage", effect="outage", where={"system_id": int(i)})
            for i in sorted(set(int(i) for i in system_ids))
        ) + tuple(extra)
        return cls(seed=seed, specs=specs)

    @classmethod
    def random(
        cls,
        seed: int,
        n_systems: int,
        *,
        intensity: float = 0.15,
        metadata_faults: bool = False,
    ) -> "FaultPlan":
        """A randomised but fully reproducible plan.

        Outages come from the existing
        :class:`~repro.storage.failures.BernoulliFailureModel` (with a
        correlated region thrown in at higher intensities); op-level
        read faults and decode faults are sprinkled with probability
        ``intensity``.  Same ``(seed, n_systems, intensity)`` ⇒ same plan.
        """
        import numpy as np

        from ..storage.failures import BernoulliFailureModel, CorrelatedFailureModel

        if not 0.0 <= intensity <= 1.0:
            raise ValueError("intensity must be in [0, 1]")
        rng = np.random.default_rng(seed)
        specs: list[FaultSpec] = []

        if rng.random() < 0.5 or intensity < 0.2:
            outage_model = BernoulliFailureModel(p=intensity / 2, seed=int(rng.integers(2**31)))
            down = outage_model.sample_failed_ids(n_systems)
        else:
            half = max(1, n_systems // 4)
            regions = [list(range(half)), list(range(half, n_systems))]
            down = CorrelatedFailureModel(
                regions, p_region=intensity / 4, p_single=intensity / 4,
                seed=int(rng.integers(2**31)),
            ).sample_failed_ids(n_systems)
        specs.extend(
            FaultSpec(site="system.outage", effect="outage", where={"system_id": int(i)})
            for i in down
        )

        n_read_faults = int(rng.integers(0, max(2, int(n_systems * intensity)) + 1))
        for sid in rng.choice(n_systems, size=min(n_read_faults, n_systems), replace=False):
            effect = str(rng.choice(["error", "corrupt", "truncate"]))
            transient = bool(rng.random() < 0.5)
            specs.append(
                FaultSpec(
                    site="storage.read",
                    effect=effect,
                    probability=float(np.round(rng.uniform(0.3, 1.0), 3)),
                    where={"system_id": int(sid)},
                    stop=2 if transient else None,
                    magnitude=4.0 if effect == "corrupt" else 0.5,
                )
            )
        if rng.random() < intensity:
            specs.append(
                FaultSpec(
                    site="ec.decode",
                    effect="error",
                    probability=float(np.round(rng.uniform(0.2, 0.8), 3)),
                    where={"level": int(rng.integers(0, 4))},
                )
            )
        if metadata_faults and rng.random() < intensity:
            specs.append(
                FaultSpec(site="kvstore.get", effect="error",
                          probability=float(np.round(rng.uniform(0.1, 0.5), 3)),
                          stop=1)
            )
        return cls(seed=seed, specs=tuple(specs))

    # -- queries -----------------------------------------------------------

    def with_seed(self, seed: int) -> "FaultPlan":
        return replace(self, seed=seed)

    def describe(self) -> str:
        if not self.specs:
            return f"seed={self.seed} (no faults)"
        return f"seed={self.seed} " + "; ".join(s.describe() for s in self.specs)

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        return {"seed": self.seed, "specs": [asdict(s) for s in self.specs]}

    @classmethod
    def from_dict(cls, d: dict) -> "FaultPlan":
        return cls(
            seed=int(d.get("seed", 0)),
            specs=tuple(FaultSpec(**s) for s in d.get("specs", [])),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def save(self, path) -> Path:
        path = Path(path)
        path.write_text(self.to_json())
        return path

    @classmethod
    def load(cls, path) -> "FaultPlan":
        return cls.from_json(Path(path).read_text())

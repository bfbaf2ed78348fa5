"""The runtime half of fault injection: :class:`FaultInjector`.

Every instrumented seam (storage systems, the file store, the KV store,
the erasure codec, the RAPIDS pipeline, the archive service) holds an
optional ``injector`` and consults it at each operation.  With no
injector attached the seams cost one ``is None`` check — production
paths are untouched.

Decisions are *stateless per operation identity*: whether spec ``s``
fires at occurrence ``c`` of operation key ``k`` is a pure function of
``sha256(seed | spec index | key | c)``.  Occurrence counters are the
only mutable state, they are keyed per ``(spec, key)`` and guarded by a
lock, so the injected fault sequence depends only on the per-key
operation order — identical ``(seed, plan)`` over an identical workload
replays bit-for-bit even when other keys interleave differently across
threads.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass

from .plan import FaultPlan, FaultSpec

__all__ = ["FaultInjector", "InjectedFault", "FaultRecord"]


class InjectedFault(RuntimeError):
    """An injected fault surfaced at an operation site.

    Carries enough context (``site``, ``effect``, ``ctx``) for the
    degraded-restore report and for shrinking a chaos failure to a
    one-line repro.
    """

    def __init__(self, site: str, effect: str, ctx: dict, *, spec_index: int = -1):
        self.site = site
        self.effect = effect
        self.ctx = dict(ctx)
        self.spec_index = spec_index
        detail = ", ".join(f"{k}={v!r}" for k, v in sorted(self.ctx.items()))
        super().__init__(f"injected {effect} at {site} ({detail})")


@dataclass(frozen=True)
class FaultRecord:
    """One injected fault, as recorded in :attr:`FaultInjector.log`."""

    site: str
    effect: str
    spec_index: int
    occurrence: int
    ctx: tuple

    def describe(self) -> str:
        detail = ", ".join(f"{k}={v!r}" for k, v in self.ctx)
        return f"{self.site}:{self.effect} #{self.occurrence} ({detail})"


def _stable_key(ctx: dict) -> str:
    return "|".join(f"{k}={ctx[k]!r}" for k in sorted(ctx))


class FaultInjector:
    """Consults a :class:`FaultPlan` at instrumented operation sites.

    Parameters
    ----------
    plan:
        The fault schedule.  ``plan.seed`` drives every probabilistic
        decision and every payload mutation.
    trace:
        When true, *every* consulted operation (faulted or not) is
        appended to :attr:`trace` — the observability hook chaos tests
        use instead of monkeypatching seams.
    """

    def __init__(self, plan: FaultPlan, *, trace: bool = False):
        self.plan = plan
        self.log: list[FaultRecord] = []
        self.trace: list[tuple[str, dict]] | None = [] if trace else None
        self._lock = threading.Lock()
        self._counts: dict[tuple[int, str], int] = {}
        self._fires: dict[int, int] = {}

    # -- decision core ------------------------------------------------------

    def _uniform(self, spec_index: int, key: str, occurrence: int) -> float:
        payload = f"{self.plan.seed}|{spec_index}|{key}|{occurrence}".encode()
        digest = hashlib.sha256(payload).digest()
        return int.from_bytes(digest[:8], "big") / 2.0**64

    def _digest_bytes(self, spec_index: int, key: str, occurrence: int, n: int) -> bytes:
        out = b""
        counter = 0
        while len(out) < n:
            payload = f"{self.plan.seed}|{spec_index}|{key}|{occurrence}|{counter}".encode()
            out += hashlib.sha256(payload).digest()
            counter += 1
        return out[:n]

    def _fault_at(self, site: str, ctx: dict) -> tuple[int, FaultSpec, str, int] | None:
        """The first firing spec (plan order) at this operation, or None.

        Occurrence counters advance for every *matching* spec whether or
        not it fires, so occurrence windows (``start``/``stop``) see the
        true attempt sequence.
        """
        if self.trace is not None:
            with self._lock:
                self.trace.append((site, dict(ctx)))
        fired: tuple[int, FaultSpec, str, int] | None = None
        with self._lock:
            for idx, spec in enumerate(self.plan.specs):
                if spec.site != site or not spec.matches(ctx):
                    continue
                key = _stable_key(ctx) if spec.scope == "key" else "*"
                ckey = (idx, key)
                occurrence = self._counts.get(ckey, 0)
                self._counts[ckey] = occurrence + 1
                if fired is not None:
                    continue  # still advance later specs' counters
                if occurrence < spec.start:
                    continue
                if spec.stop is not None and occurrence >= spec.stop:
                    continue
                if spec.max_fires is not None and self._fires.get(idx, 0) >= spec.max_fires:
                    continue
                if spec.probability < 1.0 and (
                    self._uniform(idx, key, occurrence) >= spec.probability
                ):
                    continue
                self._fires[idx] = self._fires.get(idx, 0) + 1
                self.log.append(
                    FaultRecord(site, spec.effect, idx, occurrence,
                                tuple(sorted(ctx.items())))
                )
                fired = (idx, spec, key, occurrence)
        return fired

    # -- caller conveniences ------------------------------------------------

    def check(self, site: str, *, handled: tuple = (), **ctx) -> FaultSpec | None:
        """Consult the plan; raise :class:`InjectedFault` unless the
        firing spec's effect is one the caller declared it applies
        itself (``handled``)."""
        fired = self._fault_at(site, ctx)
        if fired is None:
            return None
        idx, spec, _key, _occurrence = fired
        if spec.effect in handled:
            return spec
        raise InjectedFault(site, spec.effect, ctx, spec_index=idx)

    def filter_payload(self, site: str, payload: bytes, **ctx) -> bytes:
        """Read-path helper: pass ``payload`` through the plan.

        ``corrupt``/``truncate`` return a deterministically mutated
        copy (the original buffer is never touched); ``error`` raises.
        """
        fired = self._fault_at(site, ctx)
        if fired is None:
            return payload
        idx, spec, key, occurrence = fired
        if spec.effect in ("corrupt", "truncate"):
            return self.mutate_payload(spec, payload, spec_index=idx,
                                       key=key, occurrence=occurrence)
        raise InjectedFault(site, spec.effect, ctx, spec_index=idx)

    def mutate_payload(
        self, spec: FaultSpec, payload: bytes, *,
        spec_index: int, key: str, occurrence: int,
    ) -> bytes:
        """Apply a data effect deterministically (same plan ⇒ same bytes)."""
        if not payload:
            return payload
        if spec.effect == "truncate":
            keep = min(len(payload) - 1, int(len(payload) * min(spec.magnitude, 1.0)))
            return payload[: max(0, keep)]
        if spec.effect == "corrupt":
            n_bytes = max(1, min(len(payload), int(spec.magnitude)))
            out = bytearray(payload)
            raw = self._digest_bytes(spec_index, key, occurrence, 8 * n_bytes)
            for i in range(n_bytes):
                pos = int.from_bytes(raw[8 * i : 8 * i + 8], "big") % len(out)
                out[pos] ^= 0xFF
            return bytes(out)
        raise ValueError(f"effect {spec.effect!r} is not a payload mutation")

    # -- outages ------------------------------------------------------------

    def outage_ids(self) -> list[int]:
        """Systems the plan takes down at t=0 (seeded draws resolved)."""
        down: set[int] = set()
        for idx, spec in enumerate(self.plan.specs):
            if spec.site != "system.outage":
                continue
            sid = spec.where["system_id"]
            if spec.probability >= 1.0 or (
                self._uniform(idx, f"system_id={sid!r}", 0) < spec.probability
            ):
                down.add(int(sid))
        return sorted(down)

    def apply_outages(self, cluster) -> list[int]:
        """Fail the planned systems on ``cluster``; returns the ids."""
        ids = self.outage_ids()
        cluster.fail(ids)
        return ids

    # -- wiring -------------------------------------------------------------

    def install(self, *targets) -> "FaultInjector":
        """Attach this injector to each target.

        A target either exposes ``attach_injector`` (clusters, stores,
        codecs, the RAPIDS pipeline) or a plain ``injector`` attribute.
        Returns ``self`` so construction and wiring chain.
        """
        for obj in targets:
            attach = getattr(obj, "attach_injector", None)
            if attach is not None:
                attach(self)
            elif hasattr(obj, "injector"):
                obj.injector = self
            else:
                raise TypeError(f"{type(obj).__name__} has no injector seam")
        return self

    # -- reporting ----------------------------------------------------------

    def summary(self) -> dict:
        """Counts per (site, effect) for reports."""
        out: dict[str, int] = {}
        with self._lock:
            for rec in self.log:
                k = f"{rec.site}:{rec.effect}"
                out[k] = out.get(k, 0) + 1
        return out

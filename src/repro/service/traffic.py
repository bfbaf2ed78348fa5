"""Synthetic multi-tenant traffic for the archive service.

Scientific archive traffic is bursty and heavy-tailed: most objects are
small, a few are enormous, and tenants arrive in open-loop bursts that
do not wait for the service.  This module generates such workloads
deterministically from a seed — bounded-Pareto object sizes, weighted
tenant selection, exponential interarrivals — and drives them through an
:class:`~repro.service.frontend.ArchiveService` in two modes:

* :func:`drive_open_loop` — simulated time on a
  :class:`~repro.service.request.ManualClock`.  Arrivals never wait for
  completions; the service "speed" is the pump budget (how many queued
  requests execute per arrival batch), so overload, shedding and
  deadline dynamics replay byte-identically per seed.
* :func:`drive_threaded` — wall-clock open loop against a started
  service, for throughput/latency benchmarking.

Both return a :class:`TrafficReport` with per-tenant latency
percentiles — the numbers ``benchmarks/bench_service.py`` publishes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .request import Deadline, ServiceRequest, ServiceRejected

__all__ = [
    "TrafficMix",
    "STANDARD_MIXES",
    "synthetic_field",
    "ScheduledRequest",
    "TrafficReport",
    "bounded_pareto",
    "make_schedule",
    "drive_open_loop",
    "drive_threaded",
]


def bounded_pareto(u: float, alpha: float, lo: float, hi: float) -> float:
    """Inverse-CDF draw from a bounded Pareto(alpha) on [lo, hi]."""
    if not 0.0 <= u < 1.0:
        raise ValueError("u must be in [0, 1)")
    if lo <= 0 or hi <= lo:
        raise ValueError("need 0 < lo < hi")
    la, ha = lo**alpha, hi**alpha
    return (-(u * ha - u * la - ha) / (ha * la)) ** (-1.0 / alpha)


def synthetic_field(seed: int, size: int) -> np.ndarray:
    """Deterministic compressible test payload of roughly ``size``
    elements: a separable low-frequency field plus 5% noise, the same
    family of inputs the refactoring tests use.  (Pure white noise is
    *not* representative — it has no decaying wavelet spectrum, so the
    FT optimizer correctly reports it infeasible under omega.)"""
    rng = np.random.default_rng(seed)
    planes = max(16, size // 256)
    shape = (planes, 16, 16)
    axes = [np.linspace(0.0, 1.0, n) for n in shape]
    field = (
        np.sin((2.0 + 3.0 * rng.random()) * np.pi * axes[0])[:, None, None]
        * np.cos((1.0 + 2.0 * rng.random()) * np.pi * axes[1])[None, :, None]
        * np.sin((1.0 + 2.0 * rng.random()) * np.pi * axes[2])[None, None, :]
    )
    return (field + 0.05 * rng.normal(size=shape)).astype(np.float32)


@dataclass(frozen=True)
class TrafficMix:
    """One named tenant mix: who sends how much of what."""

    name: str
    #: tenant -> arrival weight (relative share of requests).
    tenants: dict
    #: Fraction of requests that are restores (the rest are prepares).
    restore_fraction: float = 0.75
    #: Mean open-loop interarrival gap, in service-clock seconds.
    mean_interarrival: float = 0.02


#: Deadline attached to each request, in service-clock seconds.
_DEADLINE = 5.0
#: Bounded-Pareto shape/bounds for prepare object *element* counts.
_SIZE_ALPHA = 1.3
_SIZE_LO = 1 << 10
_SIZE_HI = 1 << 14
#: Fraction of prepares that carry an idempotency key drawn from a small
#: pool of ``_KEY_POOL`` — so duplicates actually occur and coalesce/replay.
_KEYED_FRACTION = 0.5
_KEY_POOL = 8


#: The named mixes ``rapids serve --drive`` and the service benchmark
#: share.  ``balanced`` is three equal-weight tenants at a moderate
#: rate; ``hog`` is the fairness stress — one tenant submitting 8x the
#: traffic of the other, at twice the arrival rate.
STANDARD_MIXES = {
    "balanced": TrafficMix(
        name="balanced",
        tenants={"astro": 1.0, "climate": 1.0, "fusion": 1.0},
        restore_fraction=0.75,
        mean_interarrival=0.02,
    ),
    "hog": TrafficMix(
        name="hog",
        tenants={"hog": 8.0, "steady": 1.0},
        restore_fraction=0.7,
        mean_interarrival=0.01,
    ),
}


@dataclass(frozen=True)
class ScheduledRequest:
    """One arrival: everything needed to build the request at submit
    time (the deadline must bind to the service clock *then*)."""

    at: float
    tenant: str
    op: str
    name: str
    size: int = 0
    data_seed: int = 0
    idempotency_key: str | None = None
    deadline: float | None = None

    def build(self, clock) -> ServiceRequest:
        data = None
        if self.op == "prepare":
            data = synthetic_field(self.data_seed, self.size)
        dl = (
            Deadline(self.deadline, clock=clock)
            if self.deadline is not None
            else None
        )
        return ServiceRequest(
            tenant=self.tenant,
            op=self.op,
            name=self.name,
            data=data,
            idempotency_key=self.idempotency_key,
            deadline=dl,
        )


def make_schedule(
    mix: TrafficMix,
    *,
    objects: list[str],
    count: int,
    seed: int,
) -> list[ScheduledRequest]:
    """Deterministic arrival schedule for ``mix``: same seed ⇒ same
    tenants, ops, sizes, keys and arrival times, byte for byte.

    ``objects`` are the names restores draw from (prepared beforehand by
    the driver's setup phase); prepares target fresh per-mix names.
    """
    if not objects:
        raise ValueError("need at least one prepared object for restores")
    rng = np.random.default_rng(seed)
    tenants = sorted(mix.tenants)
    weights = np.array([mix.tenants[t] for t in tenants], dtype=np.float64)
    weights /= weights.sum()
    schedule: list[ScheduledRequest] = []
    t = 0.0
    for i in range(count):
        t += float(rng.exponential(mix.mean_interarrival))
        tenant = tenants[int(rng.choice(len(tenants), p=weights))]
        if rng.random() < mix.restore_fraction:
            name = objects[int(rng.integers(len(objects)))]
            schedule.append(
                ScheduledRequest(
                    at=t, tenant=tenant, op="restore", name=name,
                    deadline=_DEADLINE,
                )
            )
        else:
            size = int(
                bounded_pareto(
                    float(rng.random()), _SIZE_ALPHA,
                    float(_SIZE_LO), float(_SIZE_HI),
                )
            )
            key = None
            if rng.random() < _KEYED_FRACTION:
                key = f"{mix.name}-k{int(rng.integers(_KEY_POOL)):02d}"
            # Keyed prepares reuse the key's object name so duplicates
            # are true duplicates (same name, same bytes).
            tag = key if key is not None else f"i{i:05d}"
            schedule.append(
                ScheduledRequest(
                    at=t, tenant=tenant, op="prepare",
                    name=f"{mix.name}/{tenant}/{tag}",
                    size=size,
                    data_seed=seed ^ _hash_tag(f"{mix.name}|{tenant}|{tag}"),
                    idempotency_key=key,
                    deadline=_DEADLINE,
                )
            )
    return schedule


def _hash_tag(s: str) -> int:
    """Stable 31-bit tag hash (``hash()`` is salted per process)."""
    import hashlib

    return int.from_bytes(
        hashlib.sha256(s.encode()).digest()[:4], "big"
    ) & 0x7FFFFFFF


@dataclass
class TrafficReport:
    """What one drive produced: results, sheds, and latency stats."""

    mix: str
    seed: int
    duration: float = 0.0
    results: list = field(default_factory=list)
    sheds: list = field(default_factory=list)  # (tenant, reason, retry_after)

    @property
    def completed(self) -> int:
        return len(self.results)

    @property
    def ops_per_second(self) -> float:
        return self.completed / self.duration if self.duration > 0 else 0.0

    def latencies(self, tenant: str | None = None) -> list[float]:
        return sorted(
            r.elapsed
            for r in self.results
            if tenant is None or r.tenant == tenant
        )

    @staticmethod
    def percentile(values: list[float], q: float) -> float:
        if not values:
            return 0.0
        idx = min(len(values) - 1, int(round(q * (len(values) - 1))))
        return values[idx]

    def summary(self) -> dict:
        lat = self.latencies()
        tenants = sorted({r.tenant for r in self.results})
        statuses: dict[str, int] = {}
        for r in self.results:
            statuses[r.status] = statuses.get(r.status, 0) + 1
        shed_reasons: dict[str, int] = {}
        for _tenant, reason, _after in self.sheds:
            shed_reasons[reason] = shed_reasons.get(reason, 0) + 1
        return {
            "mix": self.mix,
            "seed": self.seed,
            "completed": self.completed,
            "shed": len(self.sheds),
            "shed_reasons": shed_reasons,
            "duration_s": round(self.duration, 6),
            "ops_per_s": round(self.ops_per_second, 3),
            "latency_p50_s": round(self.percentile(lat, 0.50), 6),
            "latency_p99_s": round(self.percentile(lat, 0.99), 6),
            "by_status": statuses,
            "by_tenant": {
                t: {
                    "completed": sum(1 for r in self.results if r.tenant == t),
                    "p50_s": round(
                        self.percentile(self.latencies(t), 0.50), 6
                    ),
                    "p99_s": round(
                        self.percentile(self.latencies(t), 0.99), 6
                    ),
                }
                for t in tenants
            },
        }


def drive_open_loop(
    service,
    clock,
    schedule: list[ScheduledRequest],
    *,
    mix_name: str = "",
    seed: int = 0,
    pump_interval: int = 1,
    service_tick: float = 0.005,
) -> TrafficReport:
    """Drive a schedule in simulated time (deterministic replay mode).

    Arrivals advance the :class:`~repro.service.request.ManualClock` to
    their timestamps and submit without waiting.  After every
    ``pump_interval`` arrivals the service executes one queued request
    inline, advancing the clock ``service_tick`` seconds
    per execution — so a pump budget below the arrival rate *is* the
    overload, and queue growth, shedding, deadline expiry and tenant
    interleaving all follow deterministically from the seed.
    """
    report = TrafficReport(mix=mix_name, seed=seed)
    start = clock()
    tickets = []

    def pump(batch: int | None) -> None:
        budget = batch
        while budget is None or budget > 0:
            n = service.pump(1)
            if n == 0:
                break
            clock.advance(service_tick)
            if budget is not None:
                budget -= 1

    for i, item in enumerate(schedule):
        if clock() < item.at:
            clock.advance(item.at - clock())
        req = item.build(clock)
        try:
            tickets.append(service.submit(req))
        except ServiceRejected as exc:
            report.sheds.append((req.tenant, exc.reason, exc.retry_after))
        if (i + 1) % pump_interval == 0:
            pump(1)
    pump(None)  # drain the backlog
    report.duration = max(clock() - start, 1e-9)
    seen = set()
    for t in tickets:
        if id(t) in seen:  # coalesced duplicates share a ticket
            continue
        seen.add(id(t))
        report.results.append(t.result(timeout=0))
    return report


def drive_threaded(
    service,
    schedule: list[ScheduledRequest],
    *,
    mix_name: str = "",
    seed: int = 0,
    time_scale: float = 1.0,
) -> TrafficReport:
    """Drive a schedule in wall-clock time against a *started* service.

    Open loop: a submitter thread fires arrivals on schedule (scaled by
    ``time_scale``) regardless of completions; sheds are recorded and
    dropped.  Returns once every admitted ticket resolves (each gets 60
    seconds).
    """
    import time as _time

    report = TrafficReport(mix=mix_name, seed=seed)
    tickets = []
    lock = threading.Lock()

    def submitter() -> None:
        t0 = _time.monotonic()
        for item in schedule:
            delay = item.at * time_scale - (_time.monotonic() - t0)
            if delay > 0:
                _time.sleep(delay)
            req = item.build(service.clock)
            try:
                ticket = service.submit(req)
            except ServiceRejected as exc:
                with lock:
                    report.sheds.append(
                        (req.tenant, exc.reason, exc.retry_after)
                    )
                continue
            with lock:
                tickets.append(ticket)

    start = _time.monotonic()
    thread = threading.Thread(target=submitter, name="traffic-submitter")
    thread.start()
    thread.join()
    seen = set()
    for t in list(tickets):
        if id(t) in seen:
            continue
        seen.add(id(t))
        report.results.append(t.result(timeout=60.0))
    report.duration = max(_time.monotonic() - start, 1e-9)
    return report

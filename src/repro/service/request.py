"""Request/response types for the archive service (``repro.service``).

The service front end speaks in :class:`ServiceRequest` /
:class:`ServiceResult` values.  A request carries everything robustness
needs end to end: the *tenant* it bills against (rate limits,
round-robin fairness), an optional *idempotency key* (exactly-once
prepare), and an optional :class:`Deadline` that the dequeue consults (a
request that lapsed in the queue is answered ``deadline``) and a restore
plans against, degrading to the affordable level prefix instead of
failing.

Time never comes from ``time.monotonic`` directly: every component takes
an injectable ``clock`` callable so chaos campaigns and property tests
drive a :class:`ManualClock` and replay byte-identically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = [
    "ManualClock",
    "Deadline",
    "ServiceRequest",
    "ServiceResult",
    "ServiceRejected",
]


class ManualClock:
    """A hand-advanced clock: deterministic time for tests and campaigns.

    Calling the instance reads the current time; :meth:`advance` moves
    it forward.  Handing one instance to the service, its token buckets,
    breakers and deadlines puts the whole front end on a single
    simulated time axis.
    """

    __slots__ = ("t",)

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> float:
        if dt < 0:
            raise ValueError("time only moves forward")
        self.t += float(dt)
        return self.t


class Deadline:
    """An absolute completion deadline on an injectable clock.

    ``Deadline(2.5, clock=clk)`` means "2.5 seconds from now on ``clk``".
    Handlers consult :meth:`remaining` before every blocking step and
    pass it as the step's timeout — the discipline rapidslint rule
    RPD117 (``service-blocking-no-deadline``) enforces across
    ``repro.service``.
    """

    __slots__ = ("at", "_clock")

    def __init__(self, seconds: float, *, clock=time.monotonic) -> None:
        if seconds <= 0:
            raise ValueError("deadline must be positive")
        self._clock = clock
        self.at = clock() + float(seconds)

    def remaining(self) -> float:
        """Seconds left before the deadline (clamped at 0)."""
        return max(0.0, self.at - self._clock())

    @property
    def expired(self) -> bool:
        return self._clock() >= self.at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(at={self.at:.3f}, remaining={self.remaining():.3f})"


@dataclass
class ServiceRequest:
    """One tenant request against the archive service.

    ``op`` is ``"prepare"`` or ``"restore"``.  For prepares, ``data``
    holds the array (or a ``.npy`` path) and ``idempotency_key`` makes
    retried submissions safe.  A restore asks for every level, gathered
    with the Naive strategy; a deadline it cannot meet degrades it to the
    deepest affordable prefix.
    """

    tenant: str
    op: str
    name: str
    data: object | None = None
    idempotency_key: str | None = None
    deadline: Deadline | None = None
    request_id: str = ""
    submitted_at: float = 0.0

    def __post_init__(self) -> None:
        if self.op not in ("prepare", "restore"):
            raise ValueError(f"unknown service op {self.op!r}")
        if not self.tenant:
            raise ValueError("tenant must be non-empty")
        if self.op == "prepare" and self.data is None:
            raise ValueError("prepare requests need data")


@dataclass
class ServiceResult:
    """What one admitted request produced, plus latency accounting."""

    request_id: str
    tenant: str
    op: str
    name: str
    #: The terminal status:
    #:
    #: * ``ok``        — executed cleanly;
    #: * ``degraded``  — executed, but the restore delivered a shorter
    #:   level prefix (faults or deadline pressure); carries the degraded
    #:   report;
    #: * ``cached``    — idempotent replay served from the request
    #:   journal, no pipeline execution;
    #: * ``deadline``  — the deadline expired before useful work could
    #:   start;
    #: * ``failed``    — the handler raised (the error string says why).
    status: str
    levels_used: int = 0
    achieved_error: float | None = None
    error: str | None = None
    replayed: bool = False
    deadline_met: bool = True
    queue_wait: float = 0.0
    service_time: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "degraded", "cached")

    @property
    def elapsed(self) -> float:
        return self.queue_wait + self.service_time

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "tenant": self.tenant,
            "op": self.op,
            "name": self.name,
            "status": self.status,
            "levels_used": self.levels_used,
            "achieved_error": self.achieved_error,
            "error": self.error,
            "replayed": self.replayed,
            "deadline_met": self.deadline_met,
        }


class ServiceRejected(RuntimeError):
    """Typed admission rejection — the load-shedding contract.

    The service never buffers beyond its bounds: a request that cannot
    be admitted is rejected *promptly* with a ``reason`` and a
    ``retry_after`` hint (seconds on the service clock).  Callers back
    off and retry; nothing ever hangs in an unbounded queue.
    """

    def __init__(self, reason: str, *, retry_after: float, tenant: str = ""):
        self.reason = reason
        self.retry_after = max(0.0, float(retry_after))
        self.tenant = tenant
        super().__init__(
            f"request rejected ({reason}); retry after "
            f"{self.retry_after:.3f}s"
        )

"""``repro.service`` — the archive-as-a-service front end.

The robustness layer over :class:`repro.core.RAPIDS`: bounded admission
with load shedding, per-tenant token buckets, a round-robin queue that
keeps tenants fair, a durable idempotency journal in the metadata KV
store, end-to-end deadline propagation with degrade-under-pressure
restores, and per-backend circuit breakers — all clock-injectable and
chaos-instrumented so every invariant is provable under a seeded
:class:`~repro.chaos.FaultPlan`.
"""

from .admission import AdmissionQueue, TokenBucket
from .breaker import BreakerBoard, CircuitBreaker
from .frontend import ArchiveService, ServiceConfig, Ticket
from .journal import IdempotencyConflict, JournalEntry, RequestJournal
from .request import (
    Deadline,
    ManualClock,
    ServiceRejected,
    ServiceRequest,
    ServiceResult,
)
from .traffic import (
    STANDARD_MIXES,
    ScheduledRequest,
    TrafficMix,
    TrafficReport,
    drive_open_loop,
    drive_threaded,
    make_schedule,
    synthetic_field,
)

__all__ = [
    "STANDARD_MIXES",
    "AdmissionQueue",
    "ArchiveService",
    "BreakerBoard",
    "CircuitBreaker",
    "Deadline",
    "IdempotencyConflict",
    "JournalEntry",
    "ManualClock",
    "RequestJournal",
    "ScheduledRequest",
    "ServiceConfig",
    "ServiceRejected",
    "ServiceRequest",
    "ServiceResult",
    "Ticket",
    "TokenBucket",
    "TrafficMix",
    "TrafficReport",
    "drive_open_loop",
    "drive_threaded",
    "make_schedule",
    "synthetic_field",
]

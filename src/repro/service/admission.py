"""Admission control: token buckets, bulkheads, and the bounded queue.

Three robustness patterns compose here:

* **Throttling / rate limiting** — a :class:`TokenBucket` per tenant
  caps sustained request rate while allowing bursts;
* **Bulkhead isolation** — a :class:`Bulkhead` grants each tenant a
  bounded number of worker slots, so one tenant saturating its quota
  cannot occupy the whole pool and starve the rest;
* **Queue-based load leveling with shedding** — the
  :class:`AdmissionQueue` is *bounded*: an offer beyond capacity is
  rejected immediately (:class:`~repro.service.request.ServiceRejected`
  with a retry-after hint), never buffered without bound.

Everything takes an injectable clock so admission decisions replay
deterministically under a :class:`~repro.service.request.ManualClock`.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from .request import ServiceRejected, ServiceRequest

__all__ = ["TokenBucket", "Bulkhead", "AdmissionQueue"]


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, ``burst`` capacity.

    :meth:`try_acquire` is non-blocking — it either takes a token and
    returns ``0.0``, or returns the seconds until one will be available
    (the caller's retry-after hint).  Refill is computed lazily from the
    clock, so a :class:`~repro.service.request.ManualClock` drives it
    deterministically.
    """

    def __init__(self, rate: float, burst: float, *, clock=time.monotonic):
        if rate <= 0:
            raise ValueError("rate must be positive")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = clock()
        self._lock = threading.Lock()

    def _refill(self) -> None:
        now = self._clock()
        if now > self._stamp:
            self._tokens = min(
                self.burst, self._tokens + (now - self._stamp) * self.rate
            )
        self._stamp = now

    def try_acquire(self) -> float:
        """Take one token if available; else seconds until it is."""
        with self._lock:
            self._refill()
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return 0.0
            return (1.0 - self._tokens) / self.rate


class Bulkhead:
    """Per-tenant worker-slot quotas over the shared execution pool.

    ``default_slots`` bounds every tenant.  Acquisition is non-blocking (the dispatcher simply skips
    tenants at quota and serves someone else — that *is* the isolation);
    ``on_release`` lets the admission queue wake waiting workers when a
    slot frees up.
    """

    def __init__(
        self,
        default_slots: int = 2,
        *,
        on_release=None,
    ):
        if default_slots < 1:
            raise ValueError("default_slots must be >= 1")
        self.default_slots = int(default_slots)
        self.on_release = on_release
        self._lock = threading.Lock()
        self._inflight: dict[str, int] = {}

    def try_acquire(self, tenant: str) -> bool:
        with self._lock:
            used = self._inflight.get(tenant, 0)
            if used >= self.default_slots:
                return False
            self._inflight[tenant] = used + 1
            return True

    def release(self, tenant: str) -> None:
        with self._lock:
            used = self._inflight.get(tenant, 0)
            if used <= 0:
                raise RuntimeError(f"release without acquire for {tenant!r}")
            if used == 1:
                del self._inflight[tenant]
            else:
                self._inflight[tenant] = used - 1
        if self.on_release is not None:
            self.on_release()


class AdmissionQueue:
    """Bounded multi-tenant FIFO with round-robin, bulkhead-aware take.

    One deque per tenant plus a global bound: :meth:`offer` rejects
    (never blocks, never buffers unboundedly) once ``capacity`` requests
    are queued across all tenants.  :meth:`take` serves tenants
    round-robin, skipping any whose bulkhead is at quota — the scheduling
    half of the isolation story: a deep queue for tenant A never delays
    tenant B's next request as long as B has slot headroom.
    """

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._queues: dict[str, deque[ServiceRequest]] = {}
        self._order: deque[str] = deque()  # round-robin tenant cursor
        self._depth = 0
        self._closed = False

    # -- producer side -----------------------------------------------------

    def depth(self) -> int:
        with self._lock:
            return self._depth

    def offer(self, req: ServiceRequest, *, retry_after: float) -> None:
        """Enqueue or shed.  Raises :class:`ServiceRejected` when the
        queue is at capacity (reason ``queue-full``) or the service is
        shutting down (reason ``shutdown``)."""
        with self._lock:
            if self._closed:
                raise ServiceRejected(
                    "shutdown", retry_after=retry_after, tenant=req.tenant
                )
            if self._depth >= self.capacity:
                raise ServiceRejected(
                    "queue-full", retry_after=retry_after, tenant=req.tenant
                )
            q = self._queues.get(req.tenant)
            if q is None:
                q = self._queues[req.tenant] = deque()
                self._order.append(req.tenant)
            q.append(req)
            self._depth += 1
            self._ready.notify()

    def close(self) -> None:
        """Stop accepting offers and wake every waiting worker."""
        with self._lock:
            self._closed = True
            self._ready.notify_all()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def notify(self) -> None:
        """Wake waiting workers (bulkhead release / external event)."""
        with self._lock:
            self._ready.notify_all()

    # -- consumer side -----------------------------------------------------

    def _pop_eligible(self, bulkhead: Bulkhead) -> ServiceRequest | None:
        """Round-robin over tenants; pop the first whose bulkhead has a
        free slot (slot acquired atomically with the pop)."""
        for _ in range(len(self._order)):
            tenant = self._order[0]
            self._order.rotate(-1)
            q = self._queues.get(tenant)
            if not q:
                continue
            if not bulkhead.try_acquire(tenant):
                continue
            req = q.popleft()
            self._depth -= 1
            return req
        return None

    def take(
        self, bulkhead: Bulkhead, *, timeout: float
    ) -> ServiceRequest | None:
        """Next eligible request (its bulkhead slot already held), or
        ``None`` after ``timeout`` seconds with nothing eligible.

        The timeout bounds the wait unconditionally (workers re-check
        their shutdown flag between takes), so a worker never blocks
        forever on an empty or fully-quota'd queue.
        """
        with self._lock:
            req = self._pop_eligible(bulkhead)
            if req is not None:
                return req
            if self._closed and self._depth == 0:
                return None
            self._ready.wait(timeout=timeout)
            return self._pop_eligible(bulkhead)

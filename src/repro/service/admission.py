"""Admission control: token buckets and the bounded round-robin queue.

Two robustness patterns compose here:

* **Throttling / rate limiting** — a :class:`TokenBucket` per tenant
  caps sustained request rate while allowing bursts;
* **Queue-based load leveling with shedding** — the
  :class:`AdmissionQueue` is *bounded*: an offer beyond capacity is
  rejected immediately (:class:`~repro.service.request.ServiceRejected`
  with a retry-after hint), never buffered without bound.  It serves
  tenants round-robin, which is the service's tenant isolation: the
  service runs one request at a time, so a flooding tenant can hold
  the front of the line for one request, never for its whole backlog.

Everything takes an injectable clock so admission decisions replay
deterministically under a :class:`~repro.service.request.ManualClock`.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from .request import ServiceRejected, ServiceRequest

__all__ = ["TokenBucket", "AdmissionQueue"]


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


class AdmissionQueue:
    """Bounded multi-tenant FIFO with a round-robin take.

    One deque per tenant plus a global bound: :meth:`offer` rejects
    (never blocks, never buffers unboundedly) once ``capacity`` requests
    are queued across all tenants.  :meth:`take` serves tenants
    round-robin, so a deep queue for tenant A delays tenant B's next
    request by at most one of A's.
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
        """Stop accepting offers and wake every waiting consumer."""
        with self._lock:
            self._closed = True
            self._ready.notify_all()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    # -- consumer side -----------------------------------------------------

    def _pop_next(self) -> ServiceRequest | None:
        """Round-robin over tenants; pop the next one's oldest request."""
        for _ in range(len(self._order)):
            tenant = self._order[0]
            self._order.rotate(-1)
            q = self._queues.get(tenant)
            if q:
                self._depth -= 1
                return q.popleft()
        return None

    def take(self, *, timeout: float) -> ServiceRequest | None:
        """Next request in round-robin order, or ``None`` after
        ``timeout`` seconds with the queue empty.

        The timeout bounds the wait unconditionally (the service thread
        re-checks its shutdown flag between takes), so a consumer never
        blocks forever on an empty queue.
        """
        with self._lock:
            req = self._pop_next()
            if req is not None:
                return req
            if self._closed and self._depth == 0:
                return None
            self._ready.wait(timeout=timeout)
            return self._pop_next()

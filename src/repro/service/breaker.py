"""Circuit breakers over backend storage systems.

The service watches the pipeline's retry layer: every time a
:class:`~repro.chaos.RetryPolicy` exhausts its attempts against a
backend system, the system's breaker records a failure.  After
``threshold`` (3) consecutive exhaustions the breaker *opens* — the service
stops routing reads at that system (it is merged into the ``avoid``
set handed to :meth:`repro.core.RAPIDS.restore`) instead of burning
every request's deadline rediscovering the same outage.  After
``reset_after`` (30) seconds the breaker moves to *half-open* and lets one
probe through; a success closes it, a failure re-opens it.

The breaker is advisory placement pressure, not a hard fence: restore's
spare-fragment path may still touch an avoided system when nothing else
can serve a stripe, which is exactly the availability-first behaviour
the paper argues for.
"""

from __future__ import annotations

import threading
import time

__all__ = ["CircuitBreaker", "BreakerBoard"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """One backend system's failure gate (closed / open / half-open)."""

    threshold = 3
    reset_after = 30.0

    def __init__(self, *, clock=time.monotonic):
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0
        self._state = CLOSED
        self._opened_at = 0.0

    @property
    def state(self) -> str:
        with self._lock:
            return self._probe_state()

    def _probe_state(self) -> str:
        # Lock held.  Open breakers decay to half-open on the clock.
        if self._state == OPEN and (
            self._clock() - self._opened_at >= self.reset_after
        ):
            self._state = HALF_OPEN
        return self._state

    def allow(self) -> bool:
        """May traffic be routed at this backend right now?

        ``closed`` and ``half-open`` allow (half-open is the probe);
        ``open`` denies.
        """
        with self._lock:
            return self._probe_state() != OPEN

    def record_failure(self) -> None:
        with self._lock:
            state = self._probe_state()
            if state == HALF_OPEN:
                # The probe failed: straight back to open.
                self._state = OPEN
                self._opened_at = self._clock()
                return
            self._failures += 1
            if self._failures >= self.threshold:
                self._state = OPEN
                self._opened_at = self._clock()

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._state = CLOSED


class BreakerBoard:
    """The per-system breaker map the service consults before restores."""

    def __init__(
        self,
        *,
        clock=time.monotonic,
    ):
        self._clock = clock
        self._lock = threading.Lock()
        self._breakers: dict[int, CircuitBreaker] = {}

    def _get(self, system_id: int) -> CircuitBreaker:
        with self._lock:
            br = self._breakers.get(system_id)
            if br is None:
                br = self._breakers[system_id] = CircuitBreaker(
                    clock=self._clock
                )
            return br

    def record_exhaustion(self, system_id: int) -> None:
        """A RetryPolicy ran out of attempts against ``system_id``."""
        self._get(system_id).record_failure()

    def record_success(self, system_id: int) -> None:
        self._get(system_id).record_success()

    def avoid(self) -> tuple[int, ...]:
        """System ids whose breaker is currently open (sorted)."""
        with self._lock:
            items = list(self._breakers.items())
        return tuple(
            sid for sid, br in sorted(items) if not br.allow()
        )

    def states(self) -> dict[int, str]:
        with self._lock:
            items = list(self._breakers.items())
        return {sid: br.state for sid, br in items}

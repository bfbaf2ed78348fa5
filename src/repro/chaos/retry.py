"""A shared retry policy: exponential backoff capped by attempts.

One policy object replaces the ad-hoc retry loops of the fetch, repair,
scrub and migration paths: it answers two questions — *may I try
again?* (:meth:`should_retry`) and *how long do I wait first?*
(:meth:`delay`) — and executes real-time retries via :meth:`call`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["RetryPolicy", "RetryOutcome"]


@dataclass
class RetryOutcome:
    """What a retried call did: its value or last error, plus accounting."""

    value: object = None
    error: BaseException | None = None
    attempts: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def retried(self) -> bool:
        return self.attempts > 1


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff (doubling per retry), capped by attempts.

    Parameters
    ----------
    max_attempts:
        Total attempts allowed (first try included).
    base:
        Delay before the first retry, in seconds (0 disables waiting).
    """

    max_attempts: int = 3
    base: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base < 0:
            raise ValueError("base must be >= 0")

    def delay(self, retry_index: int) -> float:
        """Backoff before retry ``retry_index`` (0-based)."""
        if retry_index < 0:
            raise ValueError("retry_index must be >= 0")
        return self.base * 2.0**retry_index

    def should_retry(self, attempts: int) -> bool:
        """May another attempt start after ``attempts`` tries?"""
        return attempts < self.max_attempts

    def call(
        self,
        fn,
        *,
        retry_on: tuple = (Exception,),
    ) -> RetryOutcome:
        """Execute ``fn()`` under this policy (real time).

        An exception in ``retry_on`` is retried and, once the policy is
        spent, returned: the outcome carries either the value or the
        last such exception plus the attempt/backoff accounting —
        callers that want it raised re-raise ``outcome.error``.  Any
        other exception propagates at once, unretried; that is how a
        missing object's :class:`KeyError` reaches the caller of
        :meth:`repro.core.RAPIDS.restore`.
        """
        outcome = RetryOutcome()
        while True:
            outcome.attempts += 1
            try:
                outcome.value = fn()
                outcome.error = None
                return outcome
            except retry_on as exc:
                outcome.error = exc
                outcome.errors.append(f"{type(exc).__name__}: {exc}")
            if not self.should_retry(outcome.attempts):
                return outcome
            d = self.delay(outcome.attempts - 1)
            if d > 0:
                time.sleep(d)

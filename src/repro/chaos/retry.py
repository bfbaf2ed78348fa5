"""A shared retry policy: exponential backoff + jitter + deadline.

One policy object replaces the ad-hoc retry loops of the fetch, repair,
scrub and migration paths: it answers two questions — *may I try
again?* (:meth:`should_retry`) and *how long do I wait first?*
(:meth:`delay`) — and executes real-time retries via :meth:`call`.

An unbounded policy (``max_attempts=None``) must carry a ``deadline``:
without one a permanently failed endpoint would retry forever.
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
    elapsed: float = 0.0
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def retried(self) -> bool:
        return self.attempts > 1


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter, capped by attempts and deadline.

    Parameters
    ----------
    max_attempts:
        Total attempts allowed (first try included).  ``None`` means
        unlimited — then ``deadline`` is mandatory.
    base:
        Delay before the first retry, in seconds (0 disables waiting).
    factor:
        Exponential growth factor per retry.
    jitter:
        Fraction of each delay randomised away (0 = deterministic,
        0.5 = delay uniformly in [50%, 100%] of nominal).
    max_delay:
        Cap on a single delay (``None`` = uncapped).
    deadline:
        Total time budget across all attempts and backoffs, in the
        caller's clock (wall seconds for :meth:`call`).
    """

    max_attempts: int | None = 3
    base: float = 0.5
    factor: float = 2.0
    jitter: float = 0.0
    max_delay: float | None = None
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts is not None and self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1 (or None for unlimited)")
        if self.base < 0:
            raise ValueError("base must be >= 0")
        if self.factor < 1.0:
            raise ValueError("factor must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.max_delay is not None and self.max_delay < 0:
            raise ValueError("max_delay must be >= 0")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive")
        if self.max_attempts is None and self.deadline is None:
            raise ValueError(
                "unbounded retries (max_attempts=None) require a deadline"
            )

    def delay(self, retry_index: int, *, u: float | None = None) -> float:
        """Backoff before retry ``retry_index`` (0-based).

        ``u`` is the jitter draw in [0, 1); pass one from a seeded RNG
        for reproducible schedules (ignored when ``jitter == 0``).
        """
        if retry_index < 0:
            raise ValueError("retry_index must be >= 0")
        d = self.base * self.factor**retry_index
        if self.max_delay is not None:
            d = min(d, self.max_delay)
        if self.jitter and u is not None:
            d *= 1.0 - self.jitter * u
        return d

    def should_retry(self, attempts: int, elapsed: float) -> bool:
        """May another attempt start after ``attempts`` tries and
        ``elapsed`` time spent (backoff included)?"""
        if self.max_attempts is not None and attempts >= self.max_attempts:
            return False
        if self.deadline is not None and elapsed >= self.deadline:
            return False
        return True

    def call(
        self,
        fn,
        *,
        retry_on: tuple = (Exception,),
        sleep=time.sleep,
        clock=time.monotonic,
        rng=None,
        on_retry=None,
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
        start = clock()
        outcome = RetryOutcome()
        while True:
            outcome.attempts += 1
            try:
                outcome.value = fn()
                outcome.error = None
                outcome.elapsed = clock() - start
                return outcome
            except retry_on as exc:
                outcome.error = exc
                outcome.errors.append(f"{type(exc).__name__}: {exc}")
            outcome.elapsed = clock() - start
            if not self.should_retry(outcome.attempts, outcome.elapsed):
                return outcome
            u = rng.random() if (rng is not None and self.jitter) else None
            d = self.delay(outcome.attempts - 1, u=u)
            if self.deadline is not None and outcome.elapsed + d >= self.deadline:
                return outcome
            if on_retry is not None:
                on_retry(outcome.attempts, d, outcome.error)
            if d > 0:
                sleep(d)

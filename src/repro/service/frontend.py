"""The archive service: a multi-tenant front end over the RAPIDS pipeline.

:class:`ArchiveService` turns the one-shot library into a long-running
request server.  A request's path::

    submit ──► admission (token bucket → bounded queue, shed on overflow)
           ──► dequeue   (round-robin across tenants, deadline check)
           ──► journal   (idempotency begin, cached replay short-circuit)
           ──► pipeline  (RAPIDS.prepare / RAPIDS.restore, breaker-aware)
           ──► journal commit ──► ticket resolution

One request runs at a time, start to finish, on the thread that
dequeued it: the dequeue is the only stage boundary, and a request
never waits for another mid-path.

Robustness properties, each deterministically provable under a seeded
:class:`~repro.chaos.FaultPlan` (sites ``service.admit`` /
``service.dequeue`` / ``service.journal``):

* overload sheds — :meth:`submit` raises
  :class:`~repro.service.request.ServiceRejected` with a retry-after
  hint rather than buffering without bound;
* tenants share fairly — the queue serves tenants round-robin, so a
  tenant's next request waits behind at most one queued request of
  each other tenant, however deep their backlogs;
* keyed prepares are exactly-once — the durable journal plus in-flight
  coalescing mean duplicates mutate the workspace once and observe one
  result;
* deadlines propagate — a request whose deadline lapsed in the queue is
  answered ``deadline`` at dequeue, and an over-deadline restore
  degrades to the affordable level prefix (the deepest whose §3.3
  gathering latency fits, per
  :func:`~repro.core.gathering.plan_retrieval`) instead of failing;
* backend outages trip per-system circuit breakers fed by
  ``RetryPolicy`` exhaustion, steering later restores away;
* a bug does not stop the service — an exception outside the servable
  set resolves its request ``failed`` with the error's ``repr``.

The service runs in two modes with one loop: :meth:`start` spawns one
thread that serves the queue (the benchmark / ``rapids serve`` mode),
while :meth:`pump` serves it inline on the caller's thread — the
deterministic mode chaos campaigns and property tests replay
byte-for-byte.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
import time
import traceback
import warnings
from dataclasses import dataclass
from functools import partial

from ..chaos.injector import InjectedFault
from ..core.gathering import plan_retrieval
from .admission import AdmissionQueue, TokenBucket
from .breaker import BreakerBoard
from .journal import IdempotencyConflict, RequestJournal, request_fingerprint
from .request import ServiceRejected, ServiceRequest, ServiceResult

__all__ = ["ServiceConfig", "Ticket", "ArchiveService"]

#: Failure classes the handler converts into a typed ``failed`` result.
#: Mirrors the pipeline's degradable set; anything outside it is a
#: programming error: its request still resolves ``failed``, and
#: :meth:`ArchiveService.pump` re-raises it.
_SERVABLE_ERRORS = (
    InjectedFault,
    IdempotencyConflict,
    KeyError,
    ValueError,
    OSError,
    RuntimeError,
)

#: Fraction of the remaining deadline budgeted for transfer when picking
#: the affordable level prefix of a restore.
_DEADLINE_SAFETY = 0.8
#: Retry-after hint attached to shed requests, in service-clock seconds;
#: queue pressure scales it (deeper queue → longer hint).
_SHED_RETRY_AFTER = 0.25
#: How long the idle service thread waits on the queue per loop iteration.
_POLL_INTERVAL = 0.05


@dataclass
class ServiceConfig:
    """Tuning knobs for one :class:`ArchiveService`.

    Defaults suit tests and the smoke benchmark; ``rapids serve`` maps
    its flags straight onto these fields.  There is no concurrency knob:
    :meth:`ArchiveService.start` runs one thread, which runs each request
    whole.
    """

    #: Global bound on queued (admitted but not yet executing) requests.
    queue_capacity: int = 64
    #: Per-tenant token rate (requests/second) and burst size.
    rate: float = 50.0
    burst: float = 20.0
    #: Deprecated and inert (the per-tenant worker-slot quota): with one
    #: request running at a time no quota can bind.  Any value but
    #: ``None`` warns; the field goes once no caller sets it.
    bulkhead_slots: int | None = None
    #: Deprecated and inert (the worker-thread count): :meth:`start`
    #: always runs one thread.  Any value but ``None`` warns.
    workers: int | None = None
    #: Deadline applied to requests that carry none (``None`` = unbounded).
    default_deadline: float | None = None
    #: The service clock; inject a ManualClock for deterministic runs.
    clock: object = time.monotonic

    def __post_init__(self) -> None:
        inert = [f for f in ("workers", "bulkhead_slots")
                 if getattr(self, f) is not None]
        if inert:
            warnings.warn(
                f"ServiceConfig {', '.join(inert)}: inert and deprecated, "
                "the service runs one request at a time on one thread "
                "(ROADMAP item 16 says when the fields are deleted)",
                DeprecationWarning, stacklevel=3,
            )


class Ticket:
    """The caller's handle on a submitted request — a minimal future.

    Duplicate in-flight submissions with the same idempotency key
    coalesce onto one ticket; every holder observes the same
    :class:`~repro.service.request.ServiceResult`.
    """

    __slots__ = ("request", "coalesced", "_event", "_result")

    def __init__(self, request: ServiceRequest):
        self.request = request
        #: How many duplicate submissions were folded onto this ticket.
        self.coalesced = 0
        self._event = threading.Event()
        self._result: ServiceResult | None = None

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def resolve(self, result: ServiceResult) -> None:
        self._result = result
        self._event.set()

    def result(self, timeout: float | None = None) -> ServiceResult:
        """The request's result; blocks up to ``timeout`` seconds.

        In :meth:`ArchiveService.pump` mode a ticket resolves before the
        pump that ran its request returns, so ``timeout=0`` suffices
        after it; threaded callers size the timeout off their deadline.
        """
        if not self._event.wait(timeout=timeout):
            raise TimeoutError(
                f"request {self.request.request_id} still pending"
            )
        assert self._result is not None
        return self._result


def _payload_digest(data) -> str:
    """Stable digest of a prepare payload (array bytes or source path)."""
    if data is None:
        return "none"
    if isinstance(data, (str, bytes)):
        raw = data if isinstance(data, bytes) else data.encode()
        return hashlib.sha256(b"path|" + raw).hexdigest()[:32]
    try:
        import numpy as np

        arr = np.ascontiguousarray(data)
        h = hashlib.sha256()
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
        return h.hexdigest()[:32]
    except (TypeError, ValueError):
        return hashlib.sha256(repr(data).encode()).hexdigest()[:32]


class ArchiveService:
    """Multi-tenant admission, execution, and journaling over ``RAPIDS``.

    Parameters
    ----------
    rapids:
        The pipeline instance to serve (its catalog's KV store also
        hosts the request journal).
    config:
        A :class:`ServiceConfig`; defaults are test-sized.
    """

    def __init__(self, rapids, *, config: ServiceConfig | None = None):
        self.rapids = rapids
        self.config = config or ServiceConfig()
        self.clock = self.config.clock
        self.injector = None
        self.queue = AdmissionQueue(self.config.queue_capacity)
        self.journal = RequestJournal(rapids.catalog.store)
        self.breakers = BreakerBoard(clock=self.clock)
        # Feed the breakers from the pipeline's per-fetch retry outcomes.
        rapids.fetch_observer = self._observe_fetch
        self._buckets: dict[str, TokenBucket] = {}
        self._inflight: dict[tuple[str, str], Ticket] = {}
        #: request_id -> Ticket for queued-but-unresolved requests.
        self._tickets: dict[str, Ticket] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._thread: threading.Thread | None = None
        self._stopping = threading.Event()
        self.metrics: dict[str, object] = {
            "submitted": 0,
            "completed": 0,
            "shed": {},            # reason -> count
            "coalesced": 0,
            "by_status": {},       # status -> count
            "by_tenant": {},       # tenant -> completed count
        }

    def attach_injector(self, injector) -> None:
        self.injector = injector
        self.journal.attach_injector(injector)

    # -- admission (caller thread) -----------------------------------------

    def _bucket(self, tenant: str) -> TokenBucket:
        with self._lock:
            b = self._buckets.get(tenant)
            if b is None:
                b = self._buckets[tenant] = TokenBucket(
                    self.config.rate, self.config.burst, clock=self.clock
                )
            return b

    def _shed_hint(self) -> float:
        depth = self.queue.depth()
        scale = 1.0 + depth / max(1, self.config.queue_capacity)
        return _SHED_RETRY_AFTER * scale

    def _shed(self, reason: str, tenant: str, retry_after: float):
        with self._lock:
            shed = self.metrics["shed"]
            shed[reason] = shed.get(reason, 0) + 1
        return ServiceRejected(reason, retry_after=retry_after, tenant=tenant)

    def submit(self, request: ServiceRequest) -> Ticket:
        """Admit a request; returns its :class:`Ticket`.

        Raises :class:`~repro.service.request.ServiceRejected` when the
        request is shed — rate limit exceeded, queue full, admission
        fault, or shutdown — always promptly, never by blocking.
        """
        with self._lock:
            self.metrics["submitted"] += 1
            if not request.request_id:
                request.request_id = f"req-{next(self._ids):06d}"
        request.submitted_at = self.clock()
        if request.deadline is None and self.config.default_deadline:
            from .request import Deadline

            request.deadline = Deadline(
                self.config.default_deadline, clock=self.clock
            )

        if self.injector is not None:
            try:
                self.injector.check(
                    "service.admit", tenant=request.tenant, op=request.op
                )
            except InjectedFault:
                raise self._shed(
                    "admit-fault", request.tenant, self._shed_hint()
                ) from None

        wait = self._bucket(request.tenant).try_acquire()
        if wait > 0:
            raise self._shed("rate-limited", request.tenant, wait)

        # In-flight duplicates coalesce onto the live ticket *before*
        # consuming queue capacity.
        key = request.idempotency_key
        if key is not None:
            ik = (request.tenant, key)
            with self._lock:
                live = self._inflight.get(ik)
                if live is not None and not live.done:
                    live.coalesced += 1
                    self.metrics["coalesced"] += 1
                    return live

        # The ticket is registered before the offer: once offered, the
        # service thread may run and resolve the request before
        # ``offer`` returns here.
        ticket = Ticket(request)
        with self._lock:
            self._tickets[request.request_id] = ticket
            if key is not None:
                self._inflight[(request.tenant, key)] = ticket
        try:
            self.queue.offer(request, retry_after=self._shed_hint())
        except ServiceRejected as exc:
            with self._lock:
                self._tickets.pop(request.request_id, None)
                if key is not None:
                    self._inflight.pop((request.tenant, key), None)
            raise self._shed(exc.reason, request.tenant, exc.retry_after)
        return ticket

    # -- execution ----------------------------------------------------------

    def pump(self, max_requests: int | None = None) -> int:
        """Execute queued requests inline until the queue drains (or
        ``max_requests`` ran); returns how many executed.  This is the
        deterministic mode: the submit order plus the round-robin
        dequeue fully determine the execution sequence.  An error
        outside the servable set resolves its request ``failed`` and
        is then re-raised here.
        """
        done = 0
        while max_requests is None or done < max_requests:
            req = self.queue.take(timeout=0.0)
            if req is None:
                break
            done += 1
            self._run_one(req)
        return done

    def start(self) -> None:
        """Spawn the service thread (idempotent).  It runs :meth:`pump`'s
        loop: take a request, run all of it, repeat; it waits on the
        queue only when the queue is empty."""
        if self._thread is not None:
            return
        self._stopping.clear()
        self._thread = threading.Thread(
            target=self._serve, name="archive-service", daemon=True,
        )
        self._thread.start()

    def stop(self, *, drain: bool = True) -> None:
        """Shut down: close admission, optionally drain, join the thread."""
        self.queue.close()
        if not drain:
            self._stopping.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self._stopping.set()
        # Anything still queued after a no-drain stop resolves as shed.
        while True:
            req = self.queue.take(timeout=0.0)
            if req is None:
                break
            self._resolve(req, ServiceResult(
                request_id=req.request_id, tenant=req.tenant, op=req.op,
                name=req.name, status="failed", error="service stopped",
                deadline_met=False,
            ))

    def _serve(self) -> None:
        while not self._stopping.is_set():
            req = self.queue.take(timeout=_POLL_INTERVAL)
            if req is None:
                if self.queue.closed and self.queue.depth() == 0:
                    return
                continue
            try:
                self._run_one(req)
            # rapidslint: disable-next=RPD105 -- the request already resolved failed with this error; the one service thread must outlive it
            except Exception:
                traceback.print_exc()

    # -- the handler --------------------------------------------------------

    def _resolve(self, req: ServiceRequest, result: ServiceResult) -> None:
        with self._lock:
            ticket = self._tickets.pop(req.request_id, None)
            if req.idempotency_key is not None:
                self._inflight.pop((req.tenant, req.idempotency_key), None)
            self.metrics["completed"] += 1
            by_status = self.metrics["by_status"]
            by_status[result.status] = by_status.get(result.status, 0) + 1
            by_tenant = self.metrics["by_tenant"]
            by_tenant[req.tenant] = by_tenant.get(req.tenant, 0) + 1
        if ticket is not None:
            ticket.resolve(result)

    def _run_one(self, req: ServiceRequest) -> None:
        """Run one dequeued request to resolution.  An error outside the
        servable set resolves it ``failed`` and is then re-raised."""
        started = self.clock()
        queue_wait = max(0.0, started - req.submitted_at)

        def finish(result: ServiceResult) -> None:
            result.queue_wait = queue_wait
            result.service_time = max(0.0, self.clock() - started)
            if req.deadline is not None and req.deadline.expired:
                result.deadline_met = False
            self._resolve(req, result)

        base = dict(request_id=req.request_id, tenant=req.tenant,
                    op=req.op, name=req.name)
        if self.injector is not None:
            try:
                self.injector.check(
                    "service.dequeue", tenant=req.tenant, op=req.op
                )
            except InjectedFault as exc:
                finish(ServiceResult(status="failed", error=repr(exc), **base))
                return
        # The stage boundary: a request whose deadline lapsed in the
        # queue is answered typed, without burning a pipeline run.
        if req.deadline is not None and req.deadline.expired:
            finish(ServiceResult(status="deadline", **base))
            return
        run = self._run_prepare if req.op == "prepare" else self._run_restore
        try:
            result = run(req, base)
        except _SERVABLE_ERRORS as exc:
            result = ServiceResult(status="failed", error=repr(exc), **base)
        except Exception as exc:
            finish(ServiceResult(status="failed", error=repr(exc), **base))
            raise
        finish(result)

    def _run_prepare(self, req: ServiceRequest, base: dict) -> ServiceResult:
        key = req.idempotency_key
        fingerprint = None
        if key is not None:
            fingerprint = request_fingerprint(
                req.op, req.name, _payload_digest(req.data)
            )
            prior = self.journal.begin(
                req.tenant, key, op=req.op, name=req.name,
                fingerprint=fingerprint,
            )
            if prior is not None and prior.state == "done":
                # Exactly-once: the keyed request already committed —
                # serve the journaled result, touch nothing.
                return ServiceResult(
                    status="cached", replayed=True,
                    levels_used=int(prior.result.get("levels_used", 0)),
                    achieved_error=prior.result.get("achieved_error"),
                    extra=dict(prior.result), **base,
                )
        report = self.rapids.prepare(req.name, req.data)
        result = ServiceResult(
            status="ok",
            levels_used=len(report.ft_config),
            achieved_error=report.expected_error,
            extra={"ft_config": list(report.ft_config)},
            **base,
        )
        if key is not None:
            self.journal.commit(
                req.tenant, key, fingerprint=fingerprint, op=req.op,
                name=req.name,
                result={
                    "levels_used": result.levels_used,
                    "achieved_error": result.achieved_error,
                    "ft_config": list(report.ft_config),
                },
            )
        return result

    def _run_restore(self, req: ServiceRequest, base: dict) -> ServiceResult:
        rapids = self.rapids
        rec = rapids.catalog.get_object(req.name)
        bandwidths = rapids.cluster.bandwidths
        target = None
        # What the request asks for (every level), whatever is down: a
        # restore that delivers less is degraded.
        wanted = plan_retrieval(rec, (), bandwidths)
        avoid = self.breakers.avoid()
        deadline_limited = False
        if req.deadline is not None:
            # The prefix the restore would gather against the systems it
            # treats as down, and the deepest one whose §3.3 gathering
            # latency fits the remaining budget.
            plan = partial(
                plan_retrieval, rec, [*rapids.cluster.failed_ids(), *avoid],
                bandwidths,
            )
            affordable = plan(
                seconds=req.deadline.remaining() * _DEADLINE_SAFETY
            )
            if affordable < plan():
                # Degrade to the affordable prefix instead of blowing the
                # deadline: ask for the error the prefix delivers.
                deadline_limited = True
                wanted = max(affordable, 1)
                target = rec.level_errors[wanted - 1]
        report = rapids.restore(
            req.name,
            strategy="naive",
            target_error=target,
            avoid_systems=avoid,
        )
        status = "ok"
        if (
            deadline_limited
            or report.degraded is not None
            or report.levels_used < wanted
        ):
            status = "degraded"
        extra: dict = {"wanted_levels": wanted}
        if deadline_limited:
            extra["deadline_limited"] = True
        if avoid:
            extra["avoided_systems"] = list(avoid)
        if report.degraded is not None:
            extra["failures"] = [
                f"{f.stage}@{f.level}" for f in report.degraded.failures
            ]
        return ServiceResult(
            status=status,
            levels_used=report.levels_used,
            achieved_error=report.achieved_error,
            extra=extra,
            **base,
        )

    # -- breaker feed -------------------------------------------------------

    def _observe_fetch(self, system_id: int, outcome) -> None:
        """Pipeline hook: per-fetch RetryPolicy outcomes feed breakers."""
        if outcome.ok:
            self.breakers.record_success(system_id)
        else:
            self.breakers.record_exhaustion(system_id)

    # -- introspection ------------------------------------------------------

    def snapshot(self) -> dict:
        """Point-in-time service state for logs and the smoke driver."""
        with self._lock:
            m = {
                "submitted": self.metrics["submitted"],
                "completed": self.metrics["completed"],
                "coalesced": self.metrics["coalesced"],
                "shed": dict(self.metrics["shed"]),
                "by_status": dict(self.metrics["by_status"]),
                "by_tenant": dict(self.metrics["by_tenant"]),
            }
        m["queue_depth"] = self.queue.depth()
        m["breakers"] = {
            str(sid): state for sid, state in self.breakers.states().items()
        }
        return m

"""The archive service's robustness contracts, property-tested.

The four invariants ISSUE 10 names, each checked deterministically:

1. **Exactly-once keyed prepare** — duplicate submissions with one
   idempotency key mutate the workspace once and replay the recorded
   result, including after a crash between the journal write and the
   commit (the replayed workspace is byte-identical to a clean run's).
2. **Round-robin fairness** — a flooding tenant never holds another
   tenant's admitted requests behind its whole backlog; the dequeue
   interleaves tenants, one request at a time.
3. **Shed-never-hangs** — a request the service cannot admit is
   rejected promptly with a typed reason and retry-after hint; nothing
   buffers without bound.
4. **Deterministic replay** — a seeded overload-plus-outage campaign
   over the service produces byte-identical results, shed sequences and
   metrics on every run.

Unit tests for the clock/deadline/token-bucket/breaker plumbing ride
along.
"""

import hashlib
import json
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import FaultInjector, FaultPlan, FaultSpec
from repro.core import RAPIDS
from repro.metadata import MetadataCatalog
from repro.refactor import Refactorer
from repro.service import (
    AdmissionQueue,
    ArchiveService,
    CircuitBreaker,
    Deadline,
    IdempotencyConflict,
    ManualClock,
    RequestJournal,
    ServiceConfig,
    ServiceRejected,
    ServiceRequest,
    TokenBucket,
    TrafficMix,
    drive_open_loop,
    make_schedule,
)
from repro.service.frontend import _DEADLINE_SAFETY
from repro.storage import StorageCluster
from repro.transfer import paper_bandwidth_profile

N_SYSTEMS = 8


def make_stack(tmp):
    cluster = StorageCluster(paper_bandwidth_profile(N_SYSTEMS))
    catalog = MetadataCatalog(tmp / "meta")
    return RAPIDS(cluster, catalog, refactorer=Refactorer(4), omega=0.3)


def make_service(rapids, **overrides):
    clk = overrides.pop("clock", None) or ManualClock()
    cfg = ServiceConfig(clock=clk, rate=10_000.0, burst=10_000.0, **overrides)
    return ArchiveService(rapids, config=cfg), clk


def small_field(seed=0, shape=(16, 16, 16)):
    """A compressible field (smooth + 5% noise); pure noise is not
    refactorable and the FT optimizer rejects it as infeasible."""
    rng = np.random.default_rng(seed)
    axes = [np.linspace(0.0, 1.0, n) for n in shape]
    field = (
        np.sin(5.0 * np.pi * axes[0])[:, None, None]
        * np.cos(3.0 * np.pi * axes[1])[None, :, None]
        * np.sin(2.0 * np.pi * axes[2])[None, None, :]
    )
    return (field + 0.05 * rng.normal(size=shape)).astype(np.float32)


def workspace_digest(rapids, name: str) -> str:
    """Byte-level fingerprint of one object's workspace: every fragment
    on every system plus its catalog record."""
    h = hashlib.sha256()
    rec = rapids.catalog.get_object(name)
    h.update(json.dumps(rec.level_sizes).encode())
    h.update(json.dumps(rec.ft_config).encode())
    for j in range(len(rec.level_sizes)):
        sname = rec.level_storage_name(j)
        for i in sorted(rapids.cluster.locate(sname, j)):
            sf = rapids.cluster.fetch(sname, j, i)
            h.update(f"{j}/{i}/".encode())
            h.update(bytes(sf.payload))
    return h.hexdigest()


# -- plumbing unit tests ----------------------------------------------------


class TestClockAndDeadline:
    def test_manual_clock_advances(self):
        clk = ManualClock()
        assert clk() == 0.0
        clk.advance(2.5)
        assert clk() == 2.5
        with pytest.raises(ValueError):
            clk.advance(-1)

    def test_deadline_remaining_and_expiry(self):
        clk = ManualClock()
        d = Deadline(3.0, clock=clk)
        assert d.remaining() == 3.0 and not d.expired
        clk.advance(3.0)
        assert d.remaining() == 0.0 and d.expired

    def test_deadline_validation(self):
        with pytest.raises(ValueError):
            Deadline(0.0)
        with pytest.raises(ValueError):
            Deadline(-1.0)


class TestTokenBucket:
    def test_burst_then_refill(self):
        clk = ManualClock()
        b = TokenBucket(rate=2.0, burst=2.0, clock=clk)
        assert b.try_acquire() == 0.0
        assert b.try_acquire() == 0.0
        wait = b.try_acquire()
        assert wait == pytest.approx(0.5)
        clk.advance(wait)
        assert b.try_acquire() == 0.0

    @given(st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_never_exceeds_burst(self, seed):
        rng = np.random.default_rng(seed)
        clk = ManualClock()
        b = TokenBucket(rate=5.0, burst=3.0, clock=clk)
        granted_in_burst = 0
        for _ in range(10):
            if b.try_acquire() == 0.0:
                granted_in_burst += 1
            clk.advance(float(rng.uniform(0, 0.05)))
        # 10 tries over < 0.5s: at most burst + rate * elapsed grants.
        assert granted_in_burst <= 3 + int(5.0 * 0.5) + 1


class TestCircuitBreaker:
    def test_trip_halfopen_close_cycle(self):
        clk = ManualClock()
        br = CircuitBreaker(clock=clk)
        assert br.allow()
        for _ in range(br.threshold - 1):
            br.record_failure()
        assert br.state == "closed"
        br.record_failure()
        assert br.state == "open" and not br.allow()
        clk.advance(br.reset_after)
        assert br.state == "half-open" and br.allow()
        br.record_failure()  # probe fails: straight back to open
        assert br.state == "open"
        clk.advance(br.reset_after)
        br.record_success()
        assert br.state == "closed"


class TestJournal:
    def test_key_reuse_for_different_request_conflicts(self, tmp_path):
        rapids = make_stack(tmp_path)
        j = RequestJournal(rapids.catalog.store)
        j.begin("t", "k", op="prepare", name="a", fingerprint="fp-a")
        with pytest.raises(IdempotencyConflict):
            j.begin("t", "k", op="prepare", name="b", fingerprint="fp-b")

    def test_pending_worklist(self, tmp_path):
        rapids = make_stack(tmp_path)
        j = RequestJournal(rapids.catalog.store)
        j.begin("t", "k1", op="prepare", name="a", fingerprint="f1")
        j.begin("t", "k2", op="prepare", name="b", fingerprint="f2")
        j.commit("t", "k2", fingerprint="f2", op="prepare", name="b",
                 result={})
        assert j.lookup("t", "k1").state == "pending"
        assert j.lookup("t", "k2").state == "done"


# -- invariant 1: exactly-once keyed prepare --------------------------------


class TestExactlyOnce:
    @pytest.fixture(scope="class")
    def stack(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("svc-once")
        rapids = make_stack(tmp)
        svc, clk = make_service(rapids)
        return rapids, svc

    @given(n_dups=st.integers(1, 4), seed=st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_duplicates_mutate_workspace_once(self, stack, n_dups, seed):
        rapids, svc = stack
        name = f"once/{seed}/{n_dups}"
        key = f"key-{seed}-{n_dups}"
        data = small_field(seed)
        first = svc.submit(ServiceRequest(
            tenant="a", op="prepare", name=name, data=data,
            idempotency_key=key,
        ))
        svc.pump()
        assert first.result(timeout=0).status == "ok"
        digest = workspace_digest(rapids, name)
        for _ in range(n_dups):
            dup = svc.submit(ServiceRequest(
                tenant="a", op="prepare", name=name, data=data,
                idempotency_key=key,
            ))
            svc.pump()
            res = dup.result(timeout=0)
            assert res.status == "cached" and res.replayed
            assert res.levels_used == first.result(timeout=0).levels_used
        assert workspace_digest(rapids, name) == digest

    def test_inflight_duplicates_coalesce_onto_one_ticket(self, stack):
        rapids, svc = stack
        data = small_field(7)
        reqs = [
            ServiceRequest(tenant="a", op="prepare", name="once/coalesce",
                           data=data, idempotency_key="co-key")
            for _ in range(3)
        ]
        tickets = [svc.submit(r) for r in reqs]
        assert tickets[1] is tickets[0] and tickets[2] is tickets[0]
        assert tickets[0].coalesced == 2
        assert svc.queue.depth() == 1  # duplicates consumed no capacity
        svc.pump()
        assert tickets[0].result(timeout=0).status == "ok"

    def test_conflicting_key_reuse_is_typed_failure(self, stack):
        rapids, svc = stack
        t1 = svc.submit(ServiceRequest(
            tenant="a", op="prepare", name="once/conflict-a",
            data=small_field(1), idempotency_key="conflict-key",
        ))
        svc.pump()
        assert t1.result(timeout=0).status == "ok"
        t2 = svc.submit(ServiceRequest(
            tenant="a", op="prepare", name="once/conflict-b",
            data=small_field(2), idempotency_key="conflict-key",
        ))
        svc.pump()
        res = t2.result(timeout=0)
        assert res.status == "failed"
        assert "IdempotencyConflict" in res.error


class TestCrashReplay:
    def test_crash_between_journal_and_commit_replays_byte_identical(
        self, tmp_path
    ):
        data = small_field(42)

        # Reference: one clean keyed prepare on its own stack.
        clean = make_stack(tmp_path / "clean")
        clean_svc, _ = make_service(clean)
        t = clean_svc.submit(ServiceRequest(
            tenant="a", op="prepare", name="obj", data=data,
            idempotency_key="k",
        ))
        clean_svc.pump()
        assert t.result(timeout=0).status == "ok"
        want = workspace_digest(clean, "obj")

        # Crashing run: the journal *commit* (state=done) faults after
        # the pipeline mutated the workspace — the classic crash between
        # execution and acknowledgment.
        rapids = make_stack(tmp_path / "crash")
        svc, _ = make_service(rapids)
        plan = FaultPlan(seed=3, specs=(
            FaultSpec(site="service.journal", effect="error",
                      where={"state": "done"}, max_fires=1),
        ))
        svc.attach_injector(FaultInjector(plan))
        t1 = svc.submit(ServiceRequest(
            tenant="a", op="prepare", name="obj", data=data,
            idempotency_key="k",
        ))
        svc.pump()
        r1 = t1.result(timeout=0)
        assert r1.status == "failed" and "InjectedFault" in r1.error
        entry = svc.journal.lookup("a", "k")
        assert entry is not None and entry.state == "pending"

        # Retry with the same key: the pending entry forces re-execution
        # over the partial state; the prepare converges and commits.
        svc.attach_injector(None)
        t2 = svc.submit(ServiceRequest(
            tenant="a", op="prepare", name="obj", data=data,
            idempotency_key="k",
        ))
        svc.pump()
        assert t2.result(timeout=0).status == "ok"
        assert svc.journal.lookup("a", "k").state == "done"
        assert workspace_digest(rapids, "obj") == want

        # And a third submission is served from the journal, no rerun.
        t3 = svc.submit(ServiceRequest(
            tenant="a", op="prepare", name="obj", data=data,
            idempotency_key="k",
        ))
        svc.pump()
        assert t3.result(timeout=0).status == "cached"
        assert workspace_digest(rapids, "obj") == want


# -- invariant 2: round-robin fairness --------------------------------------


class TestTenantFairness:
    def test_round_robin_interleaves_tenants(self, tmp_path):
        rapids = make_stack(tmp_path)
        svc, _ = make_service(rapids, queue_capacity=32)
        prep = svc.submit(ServiceRequest(
            tenant="b", op="prepare", name="obj", data=small_field(0)
        ))
        svc.pump()
        assert prep.result(timeout=0).status == "ok"
        # Tenant a floods 6 restores before b submits 2; round-robin
        # still serves both of b's within the first four executions.
        for _ in range(6):
            svc.submit(ServiceRequest(tenant="a", op="restore", name="obj"))
        b1 = svc.submit(ServiceRequest(tenant="b", op="restore", name="obj"))
        b2 = svc.submit(ServiceRequest(tenant="b", op="restore", name="obj"))
        svc.pump(4)
        assert b1.done and b2.done
        svc.pump()


# -- invariant 3: shed-never-hangs ------------------------------------------


class _NeverWaits(threading.Condition):
    """A condition whose ``wait`` raises instead of parking."""

    def wait(self, timeout=None):
        raise AssertionError("parked on the admission queue's condition")


class TestShedding:
    @given(capacity=st.integers(1, 6), extra=st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_overflow_rejects_promptly_with_retry_after(
        self, capacity, extra
    ):
        q = AdmissionQueue(capacity=capacity)
        # A rejecting offer must never park: any wait on the queue's
        # condition fails the test outright.
        q._ready = _NeverWaits(q._lock)
        for i in range(capacity):
            q.offer(
                ServiceRequest(tenant="t", op="restore", name="x"),
                retry_after=0.2,
            )
        for _ in range(extra):
            with pytest.raises(ServiceRejected) as exc:
                q.offer(
                    ServiceRequest(tenant="t", op="restore", name="x"),
                    retry_after=0.2,
                )
            assert exc.value.reason == "queue-full"
            assert exc.value.retry_after >= 0.0
        assert q.depth() == capacity  # nothing buffered past the bound

    def test_rate_limit_shed_carries_refill_hint(self, tmp_path):
        rapids = make_stack(tmp_path)
        clk = ManualClock()
        svc = ArchiveService(rapids, config=ServiceConfig(
            clock=clk, rate=1.0, burst=1.0, queue_capacity=8,
        ))
        svc.submit(ServiceRequest(tenant="t", op="restore", name="x"))
        with pytest.raises(ServiceRejected) as exc:
            svc.submit(ServiceRequest(tenant="t", op="restore", name="x"))
        assert exc.value.reason == "rate-limited"
        assert exc.value.retry_after == pytest.approx(1.0)
        assert svc.snapshot()["shed"] == {"rate-limited": 1}

    def test_shutdown_sheds_typed(self, tmp_path):
        rapids = make_stack(tmp_path)
        svc, _ = make_service(rapids)
        svc.queue.close()
        with pytest.raises(ServiceRejected) as exc:
            svc.submit(ServiceRequest(tenant="t", op="restore", name="x"))
        assert exc.value.reason == "shutdown"


# -- deadline propagation ---------------------------------------------------


class TestDeadlines:
    @pytest.fixture()
    def prepared(self, tmp_path):
        rapids = make_stack(tmp_path)
        svc, clk = make_service(rapids, queue_capacity=16)
        t = svc.submit(ServiceRequest(
            tenant="a", op="prepare", name="obj", data=small_field(5)
        ))
        svc.pump()
        assert t.result(timeout=0).status == "ok"
        return rapids, svc, clk

    def test_expired_in_queue_returns_typed_deadline(self, prepared):
        rapids, svc, clk = prepared
        t = svc.submit(ServiceRequest(
            tenant="a", op="restore", name="obj",
            deadline=Deadline(0.5, clock=clk),
        ))
        clk.advance(1.0)  # deadline lapses while queued
        svc.pump()
        res = t.result(timeout=0)
        assert res.status == "deadline" and not res.deadline_met

    def test_tight_deadline_degrades_to_affordable_prefix(self, prepared):
        rapids, svc, clk = prepared
        full = svc.submit(ServiceRequest(tenant="a", op="restore", name="obj"))
        svc.pump()
        n_levels = full.result(timeout=0).levels_used
        t = svc.submit(ServiceRequest(
            tenant="a", op="restore", name="obj",
            deadline=Deadline(1e-9, clock=clk),
        ))
        svc.pump()
        res = t.result(timeout=0)
        assert res.status == "degraded"
        assert res.extra.get("deadline_limited")
        assert 1 <= res.levels_used < n_levels

    def test_deadline_is_planned_with_the_gathering_latency(self, prepared):
        """A deadline between the old aggregate-bandwidth estimate
        (cumulative bytes over the summed bandwidth of every system, down
        or not) and §3.3's gathering latency of the full prefix: the
        full restore would miss it, so the service degrades up front."""
        rapids, svc, clk = prepared
        rapids.cluster.fail([0])
        rec = rapids.catalog.get_object("obj")
        full = rapids.restore("obj", strategy="naive")
        assert full.levels_used == len(rec.level_sizes) == 4
        aggregate = sum(rec.level_sizes) / float(sum(rapids.cluster.bandwidths))
        assert aggregate < full.gathering_latency
        budget = (aggregate + full.gathering_latency) / 2
        t = svc.submit(ServiceRequest(
            tenant="a", op="restore", name="obj",
            deadline=Deadline(budget / _DEADLINE_SAFETY, clock=clk),
        ))
        svc.pump()
        res = t.result(timeout=0)
        assert res.status == "degraded"
        assert res.extra.get("deadline_limited")
        assert 1 <= res.levels_used < 4
        served = rapids.restore(
            "obj", strategy="naive",
            target_error=rec.level_errors[res.levels_used - 1],
        )
        assert served.gathering_latency <= budget


# -- invariant 4: deterministic overload campaign ---------------------------


def overload_campaign(tmp, seed: int, **config) -> str:
    """One seeded overload-plus-outage run; returns its full transcript
    as canonical JSON (results, sheds, metrics, fault log).  ``config``
    adds :class:`ServiceConfig` fields."""
    rapids = make_stack(tmp)
    clk = ManualClock()
    svc = ArchiveService(rapids, config=ServiceConfig(
        clock=clk, queue_capacity=12, rate=10_000.0, burst=10_000.0,
        **config,
    ))
    # Seed objects for the restore side of the mix.
    objects = []
    for i in range(2):
        name = f"base/{i}"
        t = svc.submit(ServiceRequest(
            tenant="setup", op="prepare", name=name, data=small_field(i)
        ))
        svc.pump()
        assert t.result(timeout=0).status == "ok"
        objects.append(name)

    plan = FaultPlan(seed=seed, specs=(
        FaultSpec(site="system.outage", effect="outage",
                  where={"system_id": 1}),
        FaultSpec(site="service.admit", effect="error",
                  probability=0.15),
        FaultSpec(site="service.dequeue", effect="error",
                  probability=0.05),
        FaultSpec(site="service.journal", effect="error",
                  probability=0.2, where={"state": "done"}),
        FaultSpec(site="storage.read", effect="error",
                  probability=0.3, where={"system_id": 3}),
    ))
    injector = FaultInjector(plan)
    svc.attach_injector(injector)
    rapids.attach_injector(injector)
    injector.apply_outages(rapids.cluster)

    mix = TrafficMix(
        name="overload",
        tenants={"hog": 4.0, "steady": 1.0},
        restore_fraction=0.7,
        mean_interarrival=0.01,
    )
    schedule = make_schedule(mix, objects=objects, count=40, seed=seed)
    report = drive_open_loop(
        svc, clk, schedule, mix_name=mix.name, seed=seed,
        pump_interval=3, service_tick=0.05,
    )

    # Acceptance: every admitted request resolved with a typed status,
    # and anything past its deadline is degraded/typed, never hung.
    for r in report.results:
        assert r.status in ("ok", "degraded", "cached", "deadline", "failed")
        if not r.deadline_met:
            assert r.status in ("degraded", "deadline", "failed")
    assert svc.queue.depth() == 0

    transcript = {
        "summary": report.summary(),
        "results": [r.to_dict() for r in report.results],
        "sheds": report.sheds,
        "metrics": svc.snapshot(),
        "faults": [
            f"{rec.site}:{rec.effect}#{rec.occurrence}"
            for rec in injector.log
        ],
    }
    return json.dumps(transcript, sort_keys=True)


class TestDeterministicReplay:
    @pytest.mark.parametrize("seed", [7, 1234])
    def test_campaign_replays_byte_identical(self, tmp_path, seed):
        a = overload_campaign(tmp_path / "a", seed)
        b = overload_campaign(tmp_path / "b", seed)
        assert a == b

    def test_different_seeds_diverge(self, tmp_path):
        a = overload_campaign(tmp_path / "a", 7)
        b = overload_campaign(tmp_path / "b", 8)
        assert a != b

    def test_no_cross_tenant_starvation_under_overload(self, tmp_path):
        transcript = json.loads(overload_campaign(tmp_path / "s", 7))
        by_tenant = transcript["summary"]["by_tenant"]
        # The steady tenant keeps completing even while the hog floods.
        assert by_tenant.get("steady", {}).get("completed", 0) > 0
        assert by_tenant.get("hog", {}).get("completed", 0) > 0


# -- one thread: each request runs whole, one at a time ---------------------


def _count_concurrency(rapids, inside):
    """Wrap prepare/restore with a max-concurrency counter; ``inside()``
    runs while the call is counted, before the real pipeline."""
    state = {"active": 0, "max": 0, "calls": 0}
    lock = threading.Lock()

    def wrap(real):
        def counted(*args, **kwargs):
            with lock:
                state["active"] += 1
                state["calls"] += 1
                state["max"] = max(state["max"], state["active"])
            try:
                inside()
                return real(*args, **kwargs)
            finally:
                with lock:
                    state["active"] -= 1
        return counted

    rapids.prepare = wrap(rapids.prepare)
    rapids.restore = wrap(rapids.restore)
    return state


class TestOneThread:
    @pytest.fixture()
    def prepared(self, tmp_path):
        rapids = make_stack(tmp_path)
        rapids.prepare("obj", small_field(1))
        svc, clk = make_service(rapids, queue_capacity=16)
        yield rapids, svc, clk
        svc.stop()

    def test_start_spawns_exactly_one_thread(self, prepared):
        _, svc, _ = prepared
        before = set(threading.enumerate())
        svc.start()
        svc.start()  # idempotent
        spawned = [t for t in threading.enumerate() if t not in before]
        assert [t.name for t in spawned] == ["archive-service"]
        svc.stop()
        assert not spawned[0].is_alive()

    def test_pipeline_calls_never_overlap(self, prepared):
        """Two tenants, four requests each: every pipeline call runs
        alone.  Each call lingers so that a second thread running
        requests would be caught inside at the same time."""
        rapids, svc, _ = prepared
        state = _count_concurrency(rapids, lambda: time.sleep(0.02))
        tickets = [
            svc.submit(ServiceRequest(tenant=t, op="restore", name="obj"))
            for t in ("a", "b") * 3
        ] + [
            svc.submit(ServiceRequest(
                tenant=t, op="prepare", name=f"new-{t}",
                data=small_field(2),
            ))
            for t in ("a", "b")
        ]
        svc.start()
        results = [t.result(timeout=60.0) for t in tickets]
        assert all(r.status == "ok" for r in results)
        assert state["calls"] == 8 and state["max"] == 1

    def test_deadline_lapsed_in_queue_behind_a_running_request(
        self, prepared
    ):
        """Requests whose deadline runs out while they wait behind the
        running one are answered ``deadline`` at dequeue and never reach
        the pipeline."""
        rapids, svc, clk = prepared
        entered, release = threading.Event(), threading.Event()

        def hold() -> None:
            entered.set()
            assert release.wait(timeout=30)

        state = _count_concurrency(rapids, hold)
        svc.start()
        first = svc.submit(ServiceRequest(tenant="a", op="restore", name="obj"))
        assert entered.wait(timeout=30)
        queued = [
            svc.submit(ServiceRequest(
                tenant="b", op="prepare", name="new", data=small_field(2),
                deadline=Deadline(1.0, clock=clk),
            )),
            svc.submit(ServiceRequest(
                tenant="a", op="restore", name="obj",
                deadline=Deadline(1.0, clock=clk),
            )),
        ]
        clk.advance(2.0)
        release.set()
        assert first.result(timeout=60.0).status == "ok"
        results = [t.result(timeout=60.0) for t in queued]
        assert [r.status for r in results] == ["deadline", "deadline"]
        assert not any(r.deadline_met for r in results)
        assert state["calls"] == 1
        with pytest.raises(KeyError):
            rapids.catalog.get_object("new")

    def test_unservable_error_fails_its_request_only(self, prepared):
        """An exception outside the servable set resolves its request
        ``failed`` and the thread keeps serving the next one."""
        rapids, svc, _ = prepared
        real = rapids.restore
        raised = []

        def flaky(*args, **kwargs):
            if len(raised) < 2:
                raised.append(1)
                return 1 / 0
            return real(*args, **kwargs)

        rapids.restore = flaky
        svc.start()
        tickets = [
            svc.submit(ServiceRequest(tenant="a", op="restore", name="obj"))
            for _ in range(3)
        ]
        results = [t.result(timeout=60.0) for t in tickets]
        assert [r.status for r in results] == ["failed", "failed", "ok"]
        assert "ZeroDivisionError" in results[0].error
        assert svc._thread.is_alive()
        assert svc._tickets == {}

    def test_pump_reraises_an_unservable_error_after_resolving(
        self, prepared
    ):
        rapids, svc, _ = prepared
        rapids.restore = lambda *a, **k: 1 / 0
        t = svc.submit(ServiceRequest(tenant="a", op="restore", name="obj"))
        with pytest.raises(ZeroDivisionError):
            svc.pump()
        assert t.result(timeout=0).status == "failed"
        assert svc.snapshot()["completed"] == 1

    def test_request_resolved_before_submit_returns_keeps_its_ticket(
        self, prepared
    ):
        """The service may finish a request before ``offer`` returns to
        ``submit``; its ticket must already be registered."""
        _, svc, _ = prepared
        offer = svc.queue.offer

        def offer_then_run(req, *, retry_after):
            offer(req, retry_after=retry_after)
            svc.pump()

        svc.queue.offer = offer_then_run
        t = svc.submit(ServiceRequest(tenant="a", op="restore", name="obj"))
        assert t.result(timeout=0.1).status == "ok"
        assert svc.metrics["completed"] == 1
        assert svc._tickets == {}

    def test_shed_request_leaves_no_ticket(self, prepared):
        _, svc, _ = prepared
        svc.queue.close()
        with pytest.raises(ServiceRejected):
            svc.submit(ServiceRequest(
                tenant="a", op="prepare", name="x", data=small_field(2),
                idempotency_key="k",
            ))
        assert svc._tickets == {} and svc._inflight == {}

    def test_inert_concurrency_fields_warn_and_change_nothing(
        self, tmp_path
    ):
        with pytest.warns(DeprecationWarning, match="workers, bulkhead_slots"):
            inert = overload_campaign(
                tmp_path / "inert", 7, workers=2, bulkhead_slots=2
            )
        assert inert == overload_campaign(tmp_path / "plain", 7)
        with pytest.warns(DeprecationWarning):
            cfg = ServiceConfig(workers=4)
        svc = ArchiveService(make_stack(tmp_path / "t"), config=cfg)
        before = set(threading.enumerate())
        svc.start()
        try:
            spawned = [t for t in threading.enumerate() if t not in before]
            assert len(spawned) == 1
        finally:
            svc.stop()


# -- threaded mode smoke ----------------------------------------------------


class TestThreadedService:
    def test_start_serve_stop_clean(self, tmp_path):
        rapids = make_stack(tmp_path)
        svc = ArchiveService(rapids, config=ServiceConfig(
            queue_capacity=32, rate=10_000.0, burst=10_000.0,
        ))
        prep = svc.submit(ServiceRequest(
            tenant="a", op="prepare", name="obj", data=small_field(3)
        ))
        svc.start()
        assert prep.result(timeout=30.0).status == "ok"
        tickets = [
            svc.submit(ServiceRequest(tenant=t, op="restore", name="obj"))
            for t in ("a", "b", "a", "b")
        ]
        results = [t.result(timeout=30.0) for t in tickets]
        assert all(r.status == "ok" for r in results)
        svc.stop()
        assert svc.queue.depth() == 0

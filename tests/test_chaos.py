"""Property-based chaos testing: the pipeline under generated fault plans.

Hypothesis generates :class:`~repro.chaos.FaultPlan` schedules — outages,
permanent and transient read faults, corruption, decode faults — and
drives prepare → fail → restore, asserting the invariants that define
RAPIDS' availability story:

1. restored data error never exceeds the recorded error of the deepest
   level that survived (the error-bounded guarantee);
2. a level is recoverable iff outages plus *permanent* per-op faults do
   not exceed its m_j — transient faults heal under the retry policy;
3. restore never consults a failed system (checked via the injector's
   operation trace, not monkeypatching);
4. outcomes depend on how many systems failed, not which;
5. with degradation on, restore never raises on injected faults — it
   returns the deepest recoverable prefix plus a structured report;
6. identical ``(seed, plan)`` ⇒ byte-identical outcome, report and
   fault log (the replay contract).

Unit tests for RetryPolicy and FaultPlan serialisation ride along, plus
a CI-seeded round (``RAPIDS_CHAOS_SEED``) and an opt-in soak
(``RAPIDS_CHAOS_SOAK``).
"""

import json
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import (
    DegradedRestore,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
)
from repro.core import RAPIDS
from repro.metadata import MetadataCatalog
from repro.refactor import Refactorer, relative_linf_error
from repro.storage import StorageCluster
from repro.transfer import paper_bandwidth_profile

N_SYSTEMS = 16
OBJ = "chaos:prop"


def exact_k_failures(n: int, k: int, seed: int) -> list[int]:
    """Exactly ``k`` distinct systems of ``n``, drawn from ``seed``."""
    return sorted(np.random.default_rng(seed).choice(n, size=k, replace=False).tolist())


def exact_failures(n: int, k: int, seed: int) -> FaultPlan:
    """A plan with exactly ``k`` of ``n`` systems down."""
    return FaultPlan.outages(exact_k_failures(n, k, seed), seed=seed)


@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    """One prepared object shared by every scenario (restore is read-only)."""
    tmp = tmp_path_factory.mktemp("chaosprop")
    rng = np.random.default_rng(0)
    x = np.linspace(0, 1, 33)
    data = (
        np.sin(5 * x)[:, None, None]
        * np.cos(3 * x)[None, :, None]
        * np.sin(2 * x)[None, None, :]
        + 0.05 * rng.normal(size=(33, 33, 33))
    ).astype(np.float32)
    cluster = StorageCluster(paper_bandwidth_profile(N_SYSTEMS))
    catalog = MetadataCatalog(tmp / "meta")
    rapids = RAPIDS(cluster, catalog, refactorer=Refactorer(4), omega=0.3)
    prep = rapids.prepare(OBJ, data)
    return rapids, data, prep


def _run(rapids, plan, *, trace=False, strategy="naive"):
    """Attach a fresh injector for ``plan``, restore, detach; the cluster
    and pipeline come back clean no matter what happened."""
    injector = FaultInjector(plan, trace=trace)
    rapids.attach_injector(injector)
    injector.apply_outages(rapids.cluster)
    try:
        res = rapids.restore(OBJ, strategy=strategy)
    finally:
        rapids.attach_injector(None)
        rapids.cluster.restore_all()
    return res, injector


# -- invariant 1 + 2: error bound and m_j recoverability -------------------


@given(
    n_failures=st.integers(min_value=0, max_value=15),
    seed=st.integers(min_value=0, max_value=10_000),
    strategy=st.sampled_from(["naive", "random"]),
)
@settings(max_examples=25, deadline=None)
def test_error_bound_under_outage_plans(prepared, n_failures, seed, strategy):
    """Pure-outage plans reproduce the analytic m_j math bit-for-bit."""
    rapids, data, prep = prepared
    plan = exact_failures(N_SYSTEMS, n_failures, seed)
    res, _ = _run(rapids, plan, strategy=strategy)

    ms = prep.ft_config
    expected = sum(1 for m in ms if n_failures <= m)
    assert res.levels_used == expected
    # outages alone are handled by placement, not degradation
    assert res.degraded is None
    if expected == 0:
        assert res.data is None
        assert res.achieved_error == 1.0
    else:
        err = relative_linf_error(data, res.data)
        assert err == pytest.approx(prep.level_errors[expected - 1], abs=1e-12)


@given(
    n_out=st.integers(min_value=0, max_value=6),
    n_bad=st.integers(min_value=0, max_value=4),
    n_flaky=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=25, deadline=None)
def test_mj_recoverability_with_op_faults(prepared, n_out, n_bad, n_flaky, seed):
    """Level j recovers iff |outages ∪ permanently-faulted| <= m_j.

    Permanent read faults act as erasures (spares replace them, up to
    m_j); transient ones (occurrence window closes after 2) heal under
    the pipeline retry policy and cost nothing.
    """
    rapids, data, prep = prepared
    ids = [int(i) for i in exact_k_failures(N_SYSTEMS, n_out + n_bad + n_flaky, seed)]
    out_ids = ids[:n_out]
    bad_ids = ids[n_out:n_out + n_bad]
    flaky_ids = ids[n_out + n_bad:]
    extra = tuple(
        FaultSpec(site="storage.read", effect="error", where={"system_id": i})
        for i in bad_ids
    ) + tuple(
        FaultSpec(site="storage.read", effect="error", where={"system_id": i}, stop=2)
        for i in flaky_ids
    )
    plan = FaultPlan.outages(out_ids, seed=seed, extra=extra)
    res, _ = _run(rapids, plan)

    ms = prep.ft_config
    expected = sum(1 for m in ms if n_out + n_bad <= m)
    assert res.levels_used == expected
    if res.data is not None:
        err = relative_linf_error(data, res.data)
        assert err == pytest.approx(prep.level_errors[expected - 1], abs=1e-12)
    # a shortfall caused by op faults (not outages) must be reported
    outage_only = sum(1 for m in ms if n_out <= m)
    if expected < outage_only:
        assert res.degraded is not None
        assert res.degraded.recovered_levels == list(range(expected))


# -- invariant 3: restore never consults a failed system --------------------


def test_restore_never_touches_failed_systems(prepared):
    rapids, _, _ = prepared
    failed = [0, 4, 8]
    _, injector = _run(rapids, FaultPlan.outages(failed), trace=True,
                       strategy="random")
    touched = {
        ctx["system_id"]
        for site, ctx in injector.trace
        if site == "storage.read"
    }
    # failed systems raise UnavailableError before the injector seam, so
    # their absence from the trace is exactly the property we want
    assert touched, "restore should have consulted the read seam"
    assert not touched & set(failed)


# -- invariant 4: symmetry in failure identity ------------------------------


@given(seed_a=st.integers(0, 500), seed_b=st.integers(501, 1000))
@settings(max_examples=10, deadline=None)
def test_symmetry_in_failure_identity(prepared, seed_a, seed_b):
    rapids, _, _ = prepared
    results = []
    for seed in (seed_a, seed_b):
        plan = exact_failures(N_SYSTEMS, 4, seed)
        res, _ = _run(rapids, plan)
        results.append(res)
    assert results[0].levels_used == results[1].levels_used
    np.testing.assert_array_equal(results[0].data, results[1].data)


# -- invariant 5: degraded restore never raises -----------------------------


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    intensity=st.floats(min_value=0.05, max_value=0.6),
)
@settings(max_examples=25, deadline=None)
def test_degraded_restore_never_raises(prepared, seed, intensity):
    """Whatever the generated plan injects, restore returns
    a report — the deepest recoverable prefix, never an exception."""
    rapids, data, prep = prepared
    plan = FaultPlan.random(seed, N_SYSTEMS, intensity=intensity,
                            metadata_faults=True)
    res, _ = _run(rapids, plan)

    assert 0 <= res.levels_used <= len(prep.ft_config)
    if res.data is None:
        assert res.levels_used == 0
        assert res.achieved_error == 1.0
    else:
        err = relative_linf_error(data, res.data)
        assert err == pytest.approx(
            prep.level_errors[res.levels_used - 1], abs=1e-12
        )
    if res.degraded is not None:
        d = res.degraded
        assert isinstance(d, DegradedRestore)
        assert d.failures, "a degraded report must carry its failures"
        assert d.recovered_levels == d.requested_levels[: len(d.recovered_levels)]
        assert set(d.abandoned_levels).isdisjoint(d.recovered_levels)
        # the report round-trips to JSON (it lands in bug reports)
        json.dumps(d.to_dict())


# -- invariant 6: byte-identical replay -------------------------------------


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    intensity=st.floats(min_value=0.05, max_value=0.6),
)
@settings(max_examples=15, deadline=None)
def test_replay_is_byte_identical(prepared, seed, intensity):
    """Same (seed, plan) twice ⇒ same levels, same bytes, same fault log."""
    rapids, _, _ = prepared
    plan = FaultPlan.random(seed, N_SYSTEMS, intensity=intensity)
    res_a, inj_a = _run(rapids, plan)
    res_b, inj_b = _run(rapids, plan)

    assert res_a.levels_used == res_b.levels_used
    if res_a.data is None:
        assert res_b.data is None
    else:
        assert res_a.data.tobytes() == res_b.data.tobytes()
    da = res_a.degraded.to_dict() if res_a.degraded else None
    db = res_b.degraded.to_dict() if res_b.degraded else None
    assert da == db
    assert inj_a.log == inj_b.log


def test_plan_json_round_trip_replays(prepared, tmp_path):
    """A plan that went through disk injects the identical fault log."""
    rapids, _, _ = prepared
    plan = FaultPlan.random(1234, N_SYSTEMS, intensity=0.4)
    path = plan.save(tmp_path / "plan.json")
    reloaded = FaultPlan.load(path)
    assert reloaded == plan
    res_a, inj_a = _run(rapids, plan)
    res_b, inj_b = _run(rapids, reloaded)
    assert inj_a.log == inj_b.log
    assert res_a.levels_used == res_b.levels_used


# -- CI-seeded round and opt-in soak ---------------------------------------


def test_seeded_chaos_round():
    """The CLI's chaos round under the CI seed matrix: the chaos job runs
    this with RAPIDS_CHAOS_SEED ∈ {7, 1234, 20260806}; locally it
    defaults to 7.  Replay must be exact at the CLI-outcome level too."""
    from repro.cli import _chaos_round

    seed = int(os.environ.get("RAPIDS_CHAOS_SEED", "7"))
    plan = FaultPlan.random(seed, N_SYSTEMS, intensity=0.3)
    a = _chaos_round(plan, size=33, systems=N_SYSTEMS, strategy="naive")
    b = _chaos_round(plan, size=33, systems=N_SYSTEMS, strategy="naive")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


@pytest.mark.skipif(
    not os.environ.get("RAPIDS_CHAOS_SOAK"),
    reason="soak runs only when RAPIDS_CHAOS_SOAK is set (make chaos-soak)",
)
def test_chaos_soak(prepared):
    """Time-boxed randomised soak: many plans, every invariant, no raise."""
    rapids, data, prep = prepared
    budget = float(os.environ.get("RAPIDS_CHAOS_SOAK_SECONDS", "60"))
    deadline = time.monotonic() + budget
    seed = int(os.environ.get("RAPIDS_CHAOS_SEED", "7"))
    rounds = 0
    while time.monotonic() < deadline:
        plan = FaultPlan.random(seed + rounds, N_SYSTEMS,
                                intensity=0.05 + (rounds % 12) / 20,
                                metadata_faults=True)
        res, _ = _run(rapids, plan)
        if res.data is not None:
            err = relative_linf_error(data, res.data)
            assert err <= prep.level_errors[res.levels_used - 1] + 1e-12
        rounds += 1
    assert rounds > 0


# -- unit coverage: RetryPolicy --------------------------------------------


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="base"):
            RetryPolicy(base=-1.0)

    def test_delay_schedule(self):
        p = RetryPolicy(base=0.5)
        assert [p.delay(i) for i in range(4)] == [0.5, 1.0, 2.0, 4.0]

    def test_call_retries_then_succeeds(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("transient")
            return "ok"

        out = RetryPolicy(max_attempts=3, base=0.0).call(flaky)
        assert out.ok and out.value == "ok"
        assert out.attempts == 3 and out.retried

    def test_call_never_raises_on_exhaustion(self):
        out = RetryPolicy(max_attempts=2, base=0.0).call(
            lambda: (_ for _ in ()).throw(RuntimeError("perm"))
        )
        assert not out.ok
        assert isinstance(out.error, RuntimeError)
        assert out.attempts == 2
        assert len(out.errors) == 2

    def test_call_propagates_unlisted_exceptions(self):
        def boom():
            raise KeyError("not retryable here")

        with pytest.raises(KeyError):
            RetryPolicy(base=0.0).call(boom, retry_on=(RuntimeError,))


# -- unit coverage: FaultSpec / FaultPlan ----------------------------------


class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="site"):
            FaultSpec(site="nope.read")
        with pytest.raises(ValueError, match="effect"):
            FaultSpec(site="storage.read", effect="explode")
        with pytest.raises(ValueError, match="not valid at site"):
            FaultSpec(site="ec.decode", effect="torn")
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(site="storage.read", probability=1.5)
        with pytest.raises(ValueError, match="stop"):
            FaultSpec(site="storage.read", start=3, stop=3)
        with pytest.raises(ValueError, match="scope"):
            FaultSpec(site="storage.read", scope="galaxy")

    def test_json_round_trip(self):
        plan = FaultPlan.random(99, N_SYSTEMS, intensity=0.5,
                                metadata_faults=True)
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_with_seed_changes_draws_only(self):
        plan = FaultPlan.random(3, N_SYSTEMS, intensity=0.3)
        reseeded = plan.with_seed(4)
        assert reseeded.specs == plan.specs
        assert reseeded.seed == 4

    def test_outage_ids_resolve_deterministically(self):
        plan = FaultPlan.outages([3, 1, 1, 7])
        assert FaultInjector(plan).outage_ids() == [1, 3, 7]
        probabilistic = FaultPlan(seed=5, specs=(
            FaultSpec(site="system.outage", effect="outage",
                      probability=0.5, where={"system_id": 2}),
        ))
        assert (FaultInjector(probabilistic).outage_ids()
                == FaultInjector(probabilistic).outage_ids())

    def test_describe_mentions_every_spec(self):
        outages = exact_failures(N_SYSTEMS, 3, 1)
        plan = FaultPlan(seed=1, specs=outages.specs + (
            FaultSpec(site="ec.decode", effect="error", probability=0.5),
        ))
        text = plan.describe()
        assert "system.outage" in text and "ec.decode" in text

    def test_injected_fault_is_replayable_metadata(self, prepared):
        """An InjectedFault carries enough context to reproduce itself."""
        rapids, _, _ = prepared
        plan = FaultPlan(specs=(
            FaultSpec(site="pipeline.restore", effect="error"),
        ))
        injector = FaultInjector(plan)
        rapids.attach_injector(injector)
        try:
            res = rapids.restore(OBJ, strategy="naive")
        finally:
            rapids.attach_injector(None)
        assert res.data is None and res.degraded is not None
        (failure,) = res.degraded.failures
        assert failure.stage == "pipeline"
        assert "injected error at pipeline.restore" in failure.error
        (fault,) = injector.log
        assert fault.site == "pipeline.restore"
        assert fault.effect == "error"
        assert fault.spec_index == 0
        assert dict(fault.ctx) == {"name": OBJ}

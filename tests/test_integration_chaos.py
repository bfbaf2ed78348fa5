"""Chaos-style integration tests: the whole pipeline under randomised
failure sequences must preserve its core invariants.

Failure setups are declarative :class:`~repro.chaos.FaultPlan` schedules
(applied through a :class:`~repro.chaos.FaultInjector`) instead of
hand-rolled ``cluster.fail`` calls and monkeypatched spies — the same
plans replay from the ``rapids chaos`` CLI.

Invariants checked across every random scenario:

1. restored data error never exceeds the recorded error of the deepest
   level that survived (the paper's error-bounded guarantee);
2. a level is recoverable iff the failure count does not exceed its m_j;
3. restore never touches a failed system (observed via the injector's
   operation trace);
4. outcomes are independent of *which* systems failed, given how many
   (the symmetric-placement property behind Eqs. 4/5).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import FaultInjector, FaultPlan
from repro.core import RAPIDS
from repro.metadata import MetadataCatalog
from repro.refactor import Refactorer, relative_linf_error
from repro.storage import StorageCluster
from repro.transfer import paper_bandwidth_profile

from .test_chaos import exact_failures


@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    """One prepared object shared by the chaos scenarios (read-only)."""
    tmp = tmp_path_factory.mktemp("chaos")
    rng = np.random.default_rng(0)
    x = np.linspace(0, 1, 33)
    data = (
        np.sin(5 * x)[:, None, None]
        * np.cos(3 * x)[None, :, None]
        * np.sin(2 * x)[None, None, :]
        + 0.05 * rng.normal(size=(33, 33, 33))
    ).astype(np.float32)
    cluster = StorageCluster(paper_bandwidth_profile(16))
    catalog = MetadataCatalog(tmp / "meta")
    rapids = RAPIDS(cluster, catalog, refactorer=Refactorer(4), omega=0.3)
    prep = rapids.prepare("chaos:obj", data)
    return rapids, data, prep


def _restore_under(rapids, plan, *, trace=False, strategy="naive"):
    """Apply ``plan`` through a fresh injector, restore, detach cleanly."""
    injector = FaultInjector(plan, trace=trace)
    rapids.attach_injector(injector)
    injector.apply_outages(rapids.cluster)
    try:
        res = rapids.restore("chaos:obj", strategy=strategy)
    finally:
        rapids.attach_injector(None)
        rapids.cluster.restore_all()
    return res, injector


@given(
    n_failures=st.integers(min_value=0, max_value=15),
    seed=st.integers(min_value=0, max_value=10_000),
    strategy=st.sampled_from(["naive", "random"]),
)
@settings(max_examples=25, deadline=None)
def test_error_bound_invariant(prepared, n_failures, seed, strategy):
    rapids, data, prep = prepared
    plan = exact_failures(16, n_failures, seed)
    res, _ = _restore_under(rapids, plan, strategy=strategy)

    ms = prep.ft_config
    expected_levels = sum(1 for m in ms if n_failures <= m)
    assert res.levels_used == expected_levels
    if expected_levels == 0:
        assert res.data is None
        assert res.achieved_error == 1.0
    else:
        err = relative_linf_error(data, res.data)
        # bit-identical to the recorded error for that prefix
        assert err == pytest.approx(
            prep.level_errors[expected_levels - 1], abs=1e-12
        )


@given(seed_a=st.integers(0, 500), seed_b=st.integers(501, 1000))
@settings(max_examples=10, deadline=None)
def test_symmetry_in_failure_identity(prepared, seed_a, seed_b):
    """Two different failure sets of the same size restore the same
    number of levels and the same data."""
    rapids, data, prep = prepared
    results = []
    for seed in (seed_a, seed_b):
        plan = exact_failures(16, 4, seed)
        res, _ = _restore_under(rapids, plan)
        results.append(res)
    assert results[0].levels_used == results[1].levels_used
    np.testing.assert_array_equal(results[0].data, results[1].data)


def test_fail_restore_fail_cycles(prepared):
    """Alternating failures and recoveries never corrupt state."""
    rapids, data, prep = prepared
    rng = np.random.default_rng(42)
    for _ in range(8):
        k = int(rng.integers(0, 10))
        plan = exact_failures(16, k, int(rng.integers(1e6)))
        res, _ = _restore_under(rapids, plan)
        if res.data is not None:
            assert np.all(np.isfinite(res.data))
    res = rapids.restore("chaos:obj", strategy="naive")
    assert res.levels_used == 4


def test_restore_never_reads_failed_systems(prepared):
    rapids, _, _ = prepared
    failed = [0, 4, 8]
    _, injector = _restore_under(
        rapids, FaultPlan.outages(failed), trace=True,
        strategy="random",
    )
    # every fragment read consults the storage.read seam; failed systems
    # raise UnavailableError before reaching it, so absence from the
    # trace means restore never touched them
    touched = {
        ctx["system_id"]
        for site, ctx in injector.trace
        if site == "storage.read"
    }
    assert touched, "restore should have fetched fragments"
    assert not touched & set(failed)

"""Tests for error-controlled retrieval (progressive, adaptable access)."""

import dataclasses

import numpy as np
import pytest

from repro.core import RAPIDS
from repro.core.gathering import plan_retrieval
from repro.metadata import MetadataCatalog
from repro.refactor import (
    Refactorer,
    RetrievalPlan,
    error_prefix,
    relative_linf_error,
)
from repro.storage import StorageCluster
from repro.transfer import paper_bandwidth_profile


@pytest.fixture(scope="module")
def obj():
    x = np.linspace(0, 1, 49)
    field = (
        np.sin(4 * np.pi * x)[:, None, None]
        * np.cos(2 * np.pi * x)[None, :, None]
        * np.sin(6 * np.pi * x)[None, None, :]
    ).astype(np.float32)
    return Refactorer(4, num_planes=24).refactor(field), field


def components_needed(o, target, *, use_bounds=False):
    if use_bounds:  # the frontier an object without measured errors gets
        o = dataclasses.replace(o, errors=[])
    return RetrievalPlan.for_object(o).components_needed(target)


class TestErrorPrefix:
    def test_shortest_meeting_prefix_or_none(self):
        errors = [0.5, 0.1, 0.1, 0.01]
        assert error_prefix(errors, 1.0) == 1
        assert error_prefix(errors, 0.1) == 2
        assert error_prefix(errors, 0.05) == 4
        assert error_prefix(errors, 0.001) is None

    def test_inf_means_one_level(self):
        assert error_prefix([0.5, 0.1], float("inf")) == 1

    @pytest.mark.parametrize("bad", [float("nan"), 0.0, -1.0, float("-inf")])
    def test_nan_and_non_positive_targets_rejected(self, bad):
        with pytest.raises(ValueError, match="positive number"):
            error_prefix([0.5, 0.1], bad)


class TestComponentsForError:
    def test_loose_target_needs_few(self, obj):
        o, _ = obj
        assert components_needed(o, 1.0) == 1

    def test_exact_boundaries(self, obj):
        o, _ = obj
        for j, err in enumerate(o.errors, start=1):
            assert components_needed(o, err) == j

    def test_tight_target_needs_all(self, obj):
        o, _ = obj
        tight = (o.errors[-1] + o.errors[-2]) / 2
        assert components_needed(o, tight) == o.num_components

    def test_unreachable_raises(self, obj):
        o, _ = obj
        with pytest.raises(ValueError, match="below the floor"):
            components_needed(o, o.errors[-1] / 10 if o.errors[-1] > 0 else 1e-300)

    def test_invalid_target(self, obj):
        o, _ = obj
        with pytest.raises(ValueError):
            components_needed(o, 0.0)

    def test_bounds_are_conservative(self, obj):
        o, _ = obj
        for target in (1e-1, 1e-2):
            j_bound = components_needed(o, target, use_bounds=True)
            j_meas = components_needed(o, target)
            assert j_bound >= j_meas

    def test_reconstruction_actually_meets_target(self, obj):
        o, field = obj
        r = Refactorer(4, num_planes=24)
        for target in (1e-1, 1e-2, 1e-3):
            j = components_needed(o, target)
            back = r.reconstruct(o, upto=j)
            assert relative_linf_error(field, back) <= target


class TestRetrievalPlan:
    def test_frontier_monotone(self, obj):
        o, _ = obj
        plan = RetrievalPlan.for_object(o)
        nbytes = [b for b, _ in plan.points]
        errs = [e for _, e in plan.points]
        assert nbytes == sorted(nbytes)
        assert errs == sorted(errs, reverse=True)

    def test_budget_for_error(self, obj):
        o, _ = obj
        plan = RetrievalPlan.for_object(o)
        assert plan.budget_for_error(1.0) == plan.points[0][0]
        with pytest.raises(ValueError):
            plan.budget_for_error(plan.floor_error / 1e6 if plan.floor_error else 1e-300)

    def test_bytes_for_error_consistency(self, obj):
        o, _ = obj
        plan = RetrievalPlan.for_object(o)
        target = o.errors[1]
        j = plan.components_needed(target)
        assert plan.budget_for_error(target) == sum(o.sizes[:j])

    def test_nan_target_rejected_as_invalid(self, obj):
        o, _ = obj
        with pytest.raises(ValueError, match="positive number"):
            RetrievalPlan.for_object(o).budget_for_error(float("nan"))


class TestPipelineTargetError:
    def test_target_error_reduces_gathering(self, tmp_path):
        from repro.datasets import scale_pressure

        data = scale_pressure((33, 33, 33))
        cluster = StorageCluster(paper_bandwidth_profile(16))
        with MetadataCatalog(tmp_path / "meta") as catalog:
            rapids = RAPIDS(cluster, catalog, omega=0.3)
            prep = rapids.prepare("obj", data)
            full = rapids.restore("obj", strategy="naive")
            loose = rapids.restore(
                "obj", strategy="naive", target_error=prep.level_errors[0]
            )
            assert loose.levels_used == 1
            assert full.levels_used == 4
            assert loose.gathering_latency < full.gathering_latency
            err = relative_linf_error(data, loose.data)
            assert err <= prep.level_errors[0]

    def test_target_error_validation(self, tmp_path):
        from repro.datasets import scale_pressure

        cluster = StorageCluster(paper_bandwidth_profile(16))
        with MetadataCatalog(tmp_path / "meta") as catalog:
            rapids = RAPIDS(cluster, catalog)
            rapids.prepare("obj", scale_pressure((17, 17, 17)))
            with pytest.raises(ValueError):
                rapids.restore("obj", target_error=-1.0)

    def test_unreachable_target_uses_everything(self, tmp_path):
        """A target below the floor still restores the best available."""
        from repro.datasets import scale_pressure

        cluster = StorageCluster(paper_bandwidth_profile(16))
        with MetadataCatalog(tmp_path / "meta") as catalog:
            rapids = RAPIDS(cluster, catalog)
            rapids.prepare("obj", scale_pressure((17, 17, 17)))
            res = rapids.restore("obj", strategy="naive", target_error=1e-300)
            assert res.levels_used == 4

    def test_nan_target_rejected(self, tmp_path):
        """NaN compares false with every level error: it must be refused,
        not read as "no target" and answered with every level."""
        from repro.datasets import scale_pressure

        cluster = StorageCluster(paper_bandwidth_profile(16))
        with MetadataCatalog(tmp_path / "meta") as catalog:
            rapids = RAPIDS(cluster, catalog)
            rapids.prepare("obj", scale_pressure((17, 17, 17)))
            with pytest.raises(ValueError, match="positive number"):
                rapids.restore("obj", strategy="naive", target_error=float("nan"))


@pytest.fixture()
def hurricane(tmp_path):
    """A 4-level hurricane object on 16 systems (last level exact)."""
    from repro.datasets import hurricane_pressure

    cluster = StorageCluster(paper_bandwidth_profile(16))
    with MetadataCatalog(tmp_path / "meta") as catalog:
        rapids = RAPIDS(cluster, catalog)
        rapids.prepare("obj", hurricane_pressure((17, 33, 33)))
        yield rapids


def _by_error(rapids, rec, j):
    """The restore a progressive yield of ``j`` levels must match."""
    err = rec.level_errors[j - 1]
    return rapids.restore(
        "obj", strategy="naive", target_error=err if err > 0 else None
    )


class TestProgressiveRestore:
    def test_full_pass_fetches_what_one_restore_fetches(self, hurricane):
        rapids = hurricane
        fetches = []
        rapids.fetch_observer = lambda sid, out: fetches.append(sid)
        rapids.restore("obj", strategy="naive")
        full = len(fetches)
        fetches.clear()
        reports = list(rapids.restore_progressive("obj"))
        assert [r.levels_used for r in reports] == [1, 2, 3, 4]
        assert len(fetches) == full

    @pytest.mark.parametrize("down", [(), (5,)])
    def test_every_yield_matches_the_restore_for_its_error(self, hurricane, down):
        rapids = hurricane
        rapids.cluster.fail(down)
        rec = rapids.catalog.get_object("obj")
        reports = list(rapids.restore_progressive("obj"))
        assert reports
        for rep in reports:
            ref = _by_error(rapids, rec, rep.levels_used)
            assert rep.levels_used == ref.levels_used
            assert rep.data.tobytes() == ref.data.tobytes()
            assert rep.gathering_latency == ref.gathering_latency
            assert rep.achieved_error == ref.achieved_error


class TestPlanRetrieval:
    @pytest.mark.parametrize("down", [(), (5,), (0, 9)])
    def test_planned_latency_is_the_naive_restores_latency(self, hurricane, down):
        """§3.3's model as the planner prices it: a budget of exactly a
        naive restore's reported latency affords that prefix, and one
        just below it does not."""
        rapids = hurricane
        rapids.cluster.fail(down)
        rec = rapids.catalog.get_object("obj")
        bw = rapids.cluster.bandwidths
        failed = rapids.cluster.failed_ids()
        reachable = plan_retrieval(rec, failed, bw)
        assert reachable >= 2
        for j in range(1, reachable + 1):
            latency = _by_error(rapids, rec, j).gathering_latency
            assert plan_retrieval(rec, failed, bw, seconds=latency) == j
            below = np.nextafter(latency, 0.0)
            assert plan_retrieval(rec, failed, bw, seconds=below) == j - 1

    def test_error_then_time(self, hurricane):
        rapids = hurricane
        rec = rapids.catalog.get_object("obj")
        bw = rapids.cluster.bandwidths
        assert plan_retrieval(rec, [], bw) == 4
        assert plan_retrieval(rec, [], bw, target_error=float("inf")) == 1
        assert plan_retrieval(rec, [], bw, target_error=rec.level_errors[1]) == 2
        # Unreachable targets ask for every recoverable level.
        assert plan_retrieval(rec, [], bw, target_error=1e-300) == 4
        assert plan_retrieval(rec, [], bw, seconds=0.0) == 0
        assert plan_retrieval(
            rec, [], bw, target_error=rec.level_errors[1], seconds=1e9
        ) == 2
        with pytest.raises(ValueError, match="positive number"):
            plan_retrieval(rec, [], bw, target_error=float("nan"))

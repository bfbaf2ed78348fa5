"""Release-acceptance test: one scenario through every major subsystem.

A campaign operator's week, end to end: persistent file-backed storage,
the on-disk KV catalog, batch ingest, integrity scrub after bit rot,
adaptive gathering after bandwidth drift, proactive staging through a
maintenance window, fragment repair after disk loss, error-controlled
and progressive restores — with the data provably intact at every step.
"""

import numpy as np
import pytest

from repro.core import RAPIDS, Archive, ProactiveOperator
from repro.core.planner import ProtectionPlanner, ProtectionRequirement
from repro.metadata import MetadataCatalog
from repro.refactor import Refactorer, relative_linf_error
from repro.storage import FileStorageCluster, MaintenanceSchedule
from repro.transfer import paper_bandwidth_profile


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("acceptance")
    cluster = FileStorageCluster(
        tmp / "cluster", bandwidths=paper_bandwidth_profile(16)
    )
    catalog = MetadataCatalog(tmp / "meta")
    rapids = RAPIDS(
        cluster, catalog, refactorer=Refactorer(4, num_planes=22), omega=0.3
    )
    archive = Archive(rapids)
    rng = np.random.default_rng(0)
    x = np.linspace(0, 1, 33)
    snapshots = {}
    for i in range(3):
        ph = rng.uniform(0, 2 * np.pi, 3)
        snapshots[f"run7:T{i:02d}"] = (
            np.sin(4 * x + ph[0])[:, None, None]
            * np.cos(3 * x + ph[1])[None, :, None]
            * np.sin(2 * x + ph[2])[None, None, :]
        ).astype(np.float32)
    reports = archive.ingest(snapshots)
    yield rapids, archive, snapshots, reports
    catalog.close()


def _exact(rapids, archive, snapshots, name):
    rec = rapids.catalog.get_object(name)
    res = rapids.restore(name, strategy="naive")
    assert res.levels_used == rec.num_levels
    err = relative_linf_error(snapshots[name], res.data)
    assert err <= rec.level_errors[-1] + 1e-12


def test_01_ingest_under_budget(world):
    rapids, archive, snapshots, reports = world
    assert archive.storage_overhead() <= 0.3 + 1e-9
    for name in snapshots:
        _exact(rapids, archive, snapshots, name)


def test_03_scrub_heals_bit_rot(world):
    rapids, archive, snapshots, _ = world
    name = "run7:T00"
    sys5 = rapids.cluster[5]
    frag = sys5.get(name, 2, 5)
    rotten = bytearray(frag.payload)
    rotten[10] ^= 0xFF
    from repro.storage import StoredFragment

    sys5.put(StoredFragment(name, 2, 5, len(rotten), bytes(rotten)))
    report = archive.scrub()
    assert report["corrupt"] == 1 and report["repaired"] == 1
    _exact(rapids, archive, snapshots, name)


def test_04_adaptive_gathering_after_drift(world):
    rapids, archive, snapshots, _ = world
    # seed throughput history, then restore adaptively
    rapids.restore("run7:T01", strategy="naive")
    res = rapids.restore("run7:T01", strategy="adaptive", solver_budget=0.2)
    assert res.levels_used == 4


def test_05_staging_through_maintenance(world):
    rapids, archive, snapshots, reports = world
    ms = reports["run7:T00"].ft_config
    n_down = ms[-1] + 1
    sched = MaintenanceSchedule()
    for sid in range(n_down):
        sched.add_window(sid, 50.0, 60.0)
    op = ProactiveOperator(archive, sched)
    op.stage_for_window(50.0, 60.0)
    rapids.cluster.fail(range(n_down))
    try:
        data, levels = op.restore_with_staging("run7:T00")
        assert levels == 4
        rec = rapids.catalog.get_object("run7:T00")
        assert relative_linf_error(snapshots["run7:T00"], data) <= (
            rec.level_errors[-1] + 1e-12
        )
    finally:
        rapids.cluster.restore_all()
        op.unstage()


def test_06_repair_after_disk_loss(world):
    rapids, archive, snapshots, _ = world
    for sid in (4, 11):
        for key in rapids.cluster[sid].fragment_keys():
            if not key[0].startswith("__staged__"):
                rapids.cluster[sid].delete(*key)
    rebuilt = archive.repair()
    assert rebuilt > 0
    health = archive.health()
    assert all(o.fragments_lost == 0 for o in health.objects)
    _exact(rapids, archive, snapshots, "run7:T02")


def test_07_error_controlled_and_progressive(world):
    rapids, archive, snapshots, reports = world
    name = "run7:T01"
    rec = rapids.catalog.get_object(name)
    quick = rapids.restore(name, strategy="naive",
                           target_error=rec.level_errors[0])
    assert quick.levels_used == 1
    steps = list(rapids.restore_progressive(name))
    assert [r.levels_used for r in steps] == [1, 2, 3, 4]


def test_08_planner_consistent_with_deployment(world):
    rapids, archive, snapshots, reports = world
    rec = rapids.catalog.get_object("run7:T02")
    planner = ProtectionPlanner(
        16, 0.01, [float(s) for s in rec.level_sizes],
        list(rec.level_errors),
        float(np.prod(rec.shape)) * 4,
    )
    pt = planner.recommend(ProtectionRequirement(max_expected_error=1e-4))
    assert pt.solution.expected_error <= 1e-4

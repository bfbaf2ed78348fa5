"""Release-acceptance test: one scenario through every major subsystem.

A campaign operator's week, end to end: persistent file-backed storage,
the on-disk KV catalog, batch ingest, integrity scrub after bit rot,
adaptive gathering after bandwidth drift, parity raised by live
migration through a maintenance window, fragment repair after disk
loss, error-controlled and progressive restores — with the data provably
intact at every step.
"""

import numpy as np
import pytest

from repro.control import LiveMigrator
from repro.core import RAPIDS, BandwidthTracker
from repro.healing import scrub_and_repair
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
    reports = {name: rapids.prepare(name, d) for name, d in snapshots.items()}
    yield rapids, snapshots, reports
    catalog.close()


def _exact(rapids, snapshots, name):
    rec = rapids.catalog.get_object(name)
    res = rapids.restore(name, strategy="naive")
    assert res.levels_used == rec.num_levels
    err = relative_linf_error(snapshots[name], res.data)
    assert err <= rec.level_errors[-1] + 1e-12


def _heal(rapids):
    return scrub_and_repair(rapids.cluster, rapids.catalog, ledger=rapids.ledger)


def test_01_ingest_under_budget(world):
    rapids, snapshots, reports = world
    assert all(r.storage_overhead <= 0.3 + 1e-9 for r in reports.values())
    for name in snapshots:
        _exact(rapids, snapshots, name)


def test_03_scrub_heals_bit_rot(world):
    rapids, snapshots, _ = world
    name = "run7:T00"
    sys5 = rapids.cluster[5]
    frag = sys5.get(name, 2, 5)
    rotten = bytearray(frag.payload)
    rotten[10] ^= 0xFF
    from repro.storage import StoredFragment

    sys5.put(StoredFragment(name, 2, 5, len(rotten), bytes(rotten)))
    scrub, repair = _heal(rapids)
    assert scrub.counts() == {"corrupt": 1} and repair.repaired == 1
    _exact(rapids, snapshots, name)


def test_04_adaptive_gathering_after_drift(world):
    rapids, snapshots, _ = world
    # a tracker sees system 0 drift to a thousandth of its bandwidth
    tracker = BandwidthTracker(rapids.catalog, rapids.cluster.bandwidths)
    tracker.observe(0, rapids.cluster.bandwidths[0] / 1000, 1.0)
    res = rapids.restore("run7:T01", strategy="adaptive")
    assert res.levels_used == 4
    np.testing.assert_array_equal(
        res.data, rapids.restore("run7:T01", strategy="naive").data
    )


def test_05_staging_through_maintenance(world):
    """The announced window takes m_l + 1 systems down: the live
    re-encode stages a higher-parity generation of every level the
    window would take out, restores stay exact through the window, and
    migrating back leaves nothing parked."""
    rapids, snapshots, reports = world
    name = "run7:T00"
    ms = reports[name].ft_config
    sched = MaintenanceSchedule()
    for sid in range(ms[-1] + 1):
        sched.add_window(sid, 50.0, 60.0)
    down = sched.down_at(50.0)
    before = rapids.cluster.total_stored_bytes()
    migrator = LiveMigrator(rapids)
    ladder = [max(m, len(down) + len(ms) - 1 - j) for j, m in enumerate(ms)]
    assert migrator.migrate(name, ladder).complete
    rapids.cluster.fail(down)
    try:
        _exact(rapids, snapshots, name)
    finally:
        rapids.cluster.restore_all()
    assert migrator.migrate(name, ms).complete
    rec = rapids.catalog.get_object(name)
    assert rec.ft_config == ms
    scrub, repair = _heal(rapids)
    assert scrub.clean and repair is None
    # The only bytes added are the generation suffix ("@g2") the
    # re-encoded levels' names now carry in each fragment file header.
    renamed = sum(len(f"@g{g}") for g in rec.generations if g)
    assert rapids.cluster.total_stored_bytes() == (
        before + renamed * rapids.cluster.n
    )


def test_06_repair_after_disk_loss(world):
    rapids, snapshots, _ = world
    for sid in (4, 11):
        for key in rapids.cluster[sid].fragment_keys():
            rapids.cluster[sid].delete(*key)
    scrub, repair = _heal(rapids)
    assert set(scrub.counts()) == {"missing"}
    assert repair.repaired == len(scrub.damage) and not repair.failures
    again, _ = _heal(rapids)
    assert again.clean
    for name in snapshots:
        _exact(rapids, snapshots, name)


def test_07_error_controlled_and_progressive(world):
    rapids, snapshots, reports = world
    name = "run7:T01"
    rec = rapids.catalog.get_object(name)
    quick = rapids.restore(name, strategy="naive",
                           target_error=rec.level_errors[0])
    assert quick.levels_used == 1
    steps = list(rapids.restore_progressive(name))
    assert [r.levels_used for r in steps] == [1, 2, 3, 4]


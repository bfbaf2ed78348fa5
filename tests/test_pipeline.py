"""End-to-end tests of the RAPIDS pipeline (prepare + restore)."""

import builtins
import io
import os
import shutil
import threading

import numpy as np
import pytest

from repro.core import RAPIDS, BandwidthTracker
from repro.metadata import MetadataCatalog
from repro.refactor import Refactorer, relative_linf_error
from repro.storage import StorageCluster
from repro.transfer import paper_bandwidth_profile


def smooth_field(n=33, seed=0):
    rng = np.random.default_rng(seed)
    ax = np.meshgrid(*[np.linspace(0, 1, n)] * 3, indexing="ij")
    u = np.zeros([n] * 3)
    for k in (1, 2, 4):
        ph = rng.uniform(0, 2 * np.pi, 3)
        u += (
            np.sin(2 * np.pi * k * ax[0] + ph[0])
            * np.cos(2 * np.pi * k * ax[1] + ph[1])
            * np.sin(2 * np.pi * k * ax[2] + ph[2])
            / k
        )
    return u.astype(np.float32)


@pytest.fixture
def rapids(tmp_path):
    cluster = StorageCluster(paper_bandwidth_profile(16))
    catalog = MetadataCatalog(tmp_path / "meta")
    system = RAPIDS(cluster, catalog, refactorer=Refactorer(4), omega=0.25)
    yield system
    catalog.close()


class TestPrepare:
    def test_full_prepare(self, rapids):
        data = smooth_field()
        rep = rapids.prepare("nyx:t", data)
        assert len(rep.ft_config) == 4
        assert rep.ft_config == sorted(rep.ft_config, reverse=True)
        assert rep.storage_overhead <= 0.25 + 1e-9
        assert 0 < rep.expected_error < 1
        assert rep.distribution_latency > 0
        assert set(rep.timings) == {
            "read", "refactor", "ft_optimize", "ec_encode", "write", "metadata",
        }

    def test_fragments_placed(self, rapids):
        data = smooth_field()
        rapids.prepare("obj", data)
        for level in range(4):
            assert len(rapids.cluster.locate("obj", level)) == 16

    def test_metadata_registered(self, rapids):
        rapids.prepare("obj", smooth_field())
        rec = rapids.catalog.get_object("obj")
        assert rec.n_systems == 16
        assert len(rec.level_sizes) == 4
        assert rec.placements == [list(range(16))] * 4
        assert [len(crcs) for crcs in rec.checksums] == [16] * 4

    def test_pipelined_prepare_matches_default_path(self, rapids, tmp_path):
        data = smooth_field()
        rep = rapids.prepare("obj", data, measure_errors=False)
        assert set(rep.timings) == {
            "read", "refactor", "ft_optimize", "ec_encode", "write", "metadata",
        }
        # errors are the closed-form bounds on this path
        assert rep.level_errors == sorted(rep.level_errors, reverse=True)

        cluster2 = StorageCluster(paper_bandwidth_profile(16))
        catalog2 = MetadataCatalog(tmp_path / "meta2")
        other = RAPIDS(cluster2, catalog2, refactorer=Refactorer(4), omega=0.25)
        rep2 = other.prepare("obj", data, measure_errors=True)
        # identical payload bytes => identical sizes and FT config
        assert rep.level_sizes == rep2.level_sizes
        assert rep.ft_config == rep2.ft_config

        a = rapids.restore("obj", strategy="naive")
        b = other.restore("obj", strategy="naive")
        assert a.data.tobytes() == b.data.tobytes()
        catalog2.close()

    def test_refactorer_owns_its_workers(self, tmp_path):
        """The refactoring fan-out is set on the refactorer, once."""
        cluster = StorageCluster(paper_bandwidth_profile(8))
        catalog = MetadataCatalog(tmp_path / "meta")
        assert RAPIDS(cluster, catalog).refactorer.workers is None
        ref = Refactorer(4, workers=2)
        assert RAPIDS(cluster, catalog, refactorer=ref).refactorer is ref
        assert ref.workers == 2
        catalog.close()

    def test_fragment_files_written(self, tmp_path):
        """A file-backed cluster keeps each placed fragment as a
        self-describing container in its system's directory."""
        from repro.formats import read_fragment_file
        from repro.storage import FileStorageCluster

        cluster = FileStorageCluster(
            tmp_path / "cluster", bandwidths=paper_bandwidth_profile(16)
        )
        catalog = MetadataCatalog(tmp_path / "meta")
        RAPIDS(cluster, catalog, omega=0.25).prepare("a:b", smooth_field(n=17))
        files = sorted((tmp_path / "cluster").glob("system-*/*.rdc"))
        assert len(files) == 4 * 16
        attrs, payload = read_fragment_file(files[0])
        assert attrs["object_name"] == "a:b"
        assert len(payload) > 0
        catalog.close()

    def test_commit_timings_split_placement_from_metadata(self, rapids, monkeypatch):
        """``write`` is the fragment placement loop and ``metadata`` the
        record put plus the ``health/`` clears: a clock that only the
        patched placement and put advance pins each to its stage."""
        from types import SimpleNamespace

        from repro.core import pipeline

        clock = [0.0]
        monkeypatch.setattr(
            pipeline, "time", SimpleNamespace(perf_counter=lambda: clock[0])
        )
        for system in rapids.cluster.systems:
            real_put = system.put

            def put(frag, real_put=real_put):
                clock[0] += 1.0
                real_put(frag)

            monkeypatch.setattr(system, "put", put)
        real_put_object = rapids.catalog.put_object

        def put_object(record):
            clock[0] += 1000.0
            real_put_object(record)

        monkeypatch.setattr(rapids.catalog, "put_object", put_object)
        rep = rapids.prepare("obj", smooth_field(n=17))
        assert rep.timings["write"] == 4 * 16
        assert rep.timings["metadata"] == 1000.0
        assert sum(rep.timings.values()) == 4 * 16 + 1000.0


def _count_puts(catalog, keys: list):
    """Record every key ``catalog``'s store puts into ``keys``."""
    store = catalog.store
    put = store.put

    def counting(key, value):
        keys.append(bytes(key))
        put(key, value)

    store.put = counting


class TestCommit:
    """The object record is the one metadata write of a prepare."""

    def test_one_put_per_prepare(self, rapids):
        puts: list[bytes] = []
        _count_puts(rapids.catalog, puts)
        rapids.prepare("obj", smooth_field())
        rec = rapids.catalog.get_object("obj")
        assert (rec.n_systems, rec.num_levels) == (16, 4)
        assert puts == [b"obj/obj"]

    def test_no_fragment_or_ledger_key_in_a_full_cycle(self, rapids):
        from repro.control import LiveMigrator
        from repro.healing import scrub_and_repair

        puts: list[bytes] = []
        _count_puts(rapids.catalog, puts)
        rapids.prepare("obj", smooth_field())
        ms = rapids.catalog.get_object("obj").ft_config
        assert LiveMigrator(rapids).migrate("obj", [m + 1 for m in ms]).migrated
        rapids.cluster[3].delete("obj@g1", 1, 3)
        scrub, repair = scrub_and_repair(
            rapids.cluster, rapids.catalog, ledger=rapids.ledger
        )
        assert scrub.damage and repair.repaired == 1
        assert puts
        assert not [k for k in puts if k.startswith((b"frag/", b"ledger/"))]

    def test_restores_write_nothing(self, tmp_path, monkeypatch):
        """A restore of any strategy, and a progressive pass, leave the
        catalog's segments byte for byte as they were."""
        from repro.metadata.kvstore import KVStore

        rapids = _service_stack(tmp_path)
        data = smooth_field(n=64)[:, :16, :16].copy()
        rapids.prepare("obj", data)
        segments = sorted((tmp_path / "meta").glob("*.log"))
        before = [p.read_bytes() for p in segments]
        writes: list[str] = []
        for name in ("put", "delete"):
            monkeypatch.setattr(
                KVStore, name, lambda *a, _n=name: writes.append(_n)
            )
        for strategy in ("naive", "optimized", "adaptive", "random"):
            assert rapids.restore("obj", strategy=strategy).levels_used == 4
        assert [r.levels_used for r in rapids.restore_progressive("obj")]
        assert writes == []
        assert sorted((tmp_path / "meta").glob("*.log")) == segments
        assert [p.read_bytes() for p in segments] == before
        rapids.catalog.close()

    def test_failed_last_fragment_publishes_no_record(self, rapids):
        from repro.chaos import FaultInjector, FaultPlan, FaultSpec, InjectedFault

        last = {"level": 3, "index": 15}
        rapids.attach_injector(FaultInjector(FaultPlan(
            specs=(FaultSpec(site="storage.write", where=last),),
        )))
        with pytest.raises(InjectedFault):
            rapids.prepare("obj", smooth_field())
        assert rapids.catalog.list_objects() == []
        assert rapids.catalog.store.keys() == []


class TestRestore:
    def test_no_failures_full_accuracy(self, rapids):
        data = smooth_field()
        prep = rapids.prepare("obj", data)
        rep = rapids.restore("obj", strategy="naive")
        assert rep.levels_used == 4
        err = relative_linf_error(data, rep.data)
        assert err == pytest.approx(prep.level_errors[-1], abs=1e-9)
        assert err < 1e-4

    def test_partial_failures_partial_accuracy(self, rapids):
        data = smooth_field()
        prep = rapids.prepare("obj", data)
        ms = prep.ft_config
        # fail just more systems than the bottom level tolerates
        n_fail = ms[-1] + 1
        rapids.cluster.fail(list(range(n_fail)))
        rep = rapids.restore("obj", strategy="naive")
        assert rep.levels_used < 4
        err = relative_linf_error(data, rep.data)
        assert err == pytest.approx(prep.level_errors[rep.levels_used - 1], abs=1e-9)

    def test_catastrophic_failure(self, rapids):
        prep = rapids.prepare("obj", smooth_field())
        rapids.cluster.fail(list(range(prep.ft_config[0] + 1)))
        rep = rapids.restore("obj", strategy="naive")
        assert rep.levels_used == 0
        assert rep.data is None
        assert rep.achieved_error == 1.0

    def test_strategies_give_same_data(self, rapids):
        data = smooth_field()
        rapids.prepare("obj", data)
        rapids.cluster.fail([3, 7])
        outs = {}
        for strat in ("random", "naive", "optimized"):
            rep = rapids.restore("obj", strategy=strat)
            outs[strat] = rep
        ref = outs["naive"].data
        for strat, rep in outs.items():
            np.testing.assert_array_equal(rep.data, ref)

    def test_unknown_strategy(self, rapids):
        rapids.prepare("obj", smooth_field(n=17))
        with pytest.raises(ValueError):
            rapids.restore("obj", strategy="psychic")

    def test_adaptive_strategy(self, rapids):
        rapids.prepare("obj", smooth_field())
        homes: list[int] = []
        rapids.fetch_observer = lambda home, out: homes.append(home)

        def restore(strategy):
            homes.clear()
            return rapids.restore("obj", strategy=strategy), sorted(homes)

        # Nothing observed: the estimates are the configured profile,
        # so adaptive is the optimized plan and data.
        opt, opt_homes = restore("optimized")
        res, res_homes = restore("adaptive")
        assert res.levels_used == 4
        assert res_homes == opt_homes and 0 in opt_homes
        assert res.gathering_latency == opt.gathering_latency
        np.testing.assert_array_equal(res.data, opt.data)
        # §4.3: once a tracker observes system 0 as slow, adaptive stops
        # reading from it.
        tracker = BandwidthTracker(rapids.catalog, rapids.cluster.bandwidths)
        tracker.observe(0, 1.0, 1.0)
        res, res_homes = restore("adaptive")
        assert 0 not in res_homes
        np.testing.assert_array_equal(res.data, opt.data)

    def test_restore_unknown_object(self, rapids):
        with pytest.raises(KeyError):
            rapids.restore("ghost")

    def test_timings_present(self, rapids):
        rapids.prepare("obj", smooth_field(n=17))
        rep = rapids.restore("obj", strategy="naive")
        assert set(rep.timings) == {
            "gather_optimize", "gather", "ec_decode", "reconstruct",
        }
        assert sum(rep.timings.values()) > 0


class TestSurvivability:
    @pytest.mark.parametrize("n_fail", [1, 2, 3, 4])
    def test_accuracy_degrades_monotonically(self, rapids, n_fail):
        data = smooth_field()
        rapids.prepare("obj", data)
        rapids.cluster.fail(list(range(n_fail)))
        rep = rapids.restore("obj", strategy="naive")
        if rep.data is not None:
            err = relative_linf_error(data, rep.data)
            assert err < 1.0

    def test_repeated_fail_restore_cycles(self, rapids):
        data = smooth_field()
        rapids.prepare("obj", data)
        prev_err = 0.0
        for n_fail in (6, 4, 2, 0):
            rapids.cluster.restore_all()
            rapids.cluster.fail(list(range(n_fail)))
            rep = rapids.restore("obj", strategy="naive")
            err = relative_linf_error(data, rep.data)
            assert err >= 0
        assert rep.levels_used == 4


class _Spy:
    """What a block of pipeline work did: fragment files opened for
    reading (by path), ``stat`` calls on fragment files, threads
    started."""

    def __init__(self, monkeypatch):
        self.opened: list[str] = []
        self.fragment_stats = self.threads = 0
        real_open, real_stat = builtins.open, os.stat
        real_start = threading.Thread.start

        def counting_open(file, mode="r", *args, **kwargs):
            if str(file).endswith(".rdc") and "r" in mode:
                self.opened.append(str(file))
            return real_open(file, mode, *args, **kwargs)

        def counting_stat(path, *args, **kwargs):
            self.fragment_stats += str(path).endswith(".rdc")
            return real_stat(path, *args, **kwargs)

        def counting_start(thread):
            self.threads += 1
            return real_start(thread)

        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr(os, "stat", counting_stat)
        monkeypatch.setattr(threading.Thread, "start", counting_start)

    def reset(self):
        self.opened, self.fragment_stats, self.threads = [], 0, 0


def _service_stack(root, n=8):
    from repro.storage import FileStorageCluster

    cluster = FileStorageCluster(
        root / "cl", bandwidths=paper_bandwidth_profile(n)
    )
    catalog = MetadataCatalog(root / "meta")
    return RAPIDS(cluster, catalog, refactorer=Refactorer(4), omega=0.3)


def _service_object(seed=5):
    from repro.service.traffic import synthetic_field

    return synthetic_field(seed, 4096)


def _stored_files(rapids) -> dict[str, bytes]:
    root = rapids.cluster.root
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*.rdc"))
    }


def _planned_reads(rapids, rec, report) -> int:
    return sum(rapids.cluster.n - m for m in rec.ft_config[:report.levels_used])


class TestPlacementReads:
    """A restore reads each planned fragment once, from the system the
    object record places it on; the cluster scan is only the fallback."""

    @pytest.fixture
    def stack(self, tmp_path):
        rapids = _service_stack(tmp_path)
        data = _service_object()
        rapids.prepare("obj", data)
        yield rapids, data
        rapids.catalog.close()

    def test_a_small_request_opens_each_planned_fragment_once(
        self, stack, monkeypatch
    ):
        rapids, data = stack
        rec = rapids.catalog.get_object("obj")
        spy = _Spy(monkeypatch)
        rep = rapids.restore("obj", strategy="naive")
        assert rep.degraded is None and rep.levels_used == rec.num_levels
        assert len(spy.opened) == len(set(spy.opened))
        assert len(spy.opened) == _planned_reads(rapids, rec, rep)
        assert spy.fragment_stats == 0
        assert spy.threads == 0
        spy.reset()
        rapids.prepare("obj2", data)
        assert spy.threads == 0

    def test_a_large_object_still_fans_out_to_the_same_bytes(
        self, tmp_path, monkeypatch
    ):
        from repro.parallel import threads

        data = _service_object()
        inline = _service_stack(tmp_path / "inline")
        inline.prepare("obj", data)
        expected = inline.restore("obj", strategy="naive").data
        inline.catalog.close()

        # The object now sits at the pool threshold.
        monkeypatch.setattr(threads, "_MIN_POOL_ELEMENTS", data.size)
        monkeypatch.setattr(threads, "default_workers", lambda: 2)
        spy = _Spy(monkeypatch)
        pooled = _service_stack(tmp_path / "pooled")
        pooled.prepare("obj", data)
        assert spy.threads > 0
        spy.reset()
        rep = pooled.restore("obj", strategy="naive")
        assert spy.threads > 0
        pooled.catalog.close()
        assert _stored_files(pooled) == _stored_files(inline)
        assert rep.data.tobytes() == expected.tobytes()

    def test_a_stale_copy_cannot_shadow_the_recorded_one(
        self, stack, monkeypatch
    ):
        """A repair that re-placed a fragment and could not delete the
        old copy leaves it behind; here every fragment i >= 1 has such a
        self-consistent copy on system 0, below its recorded home."""
        from repro.formats import crc32
        from repro.storage import StoredFragment

        rapids, _ = stack
        clean = rapids.restore("obj", strategy="naive").data
        rec = rapids.catalog.get_object("obj")
        for j in range(rec.num_levels):
            for i in range(1, rapids.cluster.n):
                good = rapids.cluster[i].get("obj", j, i).payload
                blob = bytes(b ^ 0xFF for b in good)
                rapids.cluster[0].put(StoredFragment(
                    "obj", j, i, len(blob), blob, checksum=crc32(blob)
                ))
        spy = _Spy(monkeypatch)
        rep = rapids.restore("obj", strategy="naive")
        assert rep.degraded is None  # no erasure, no CRC tally
        assert rep.data.tobytes() == clean.tobytes()
        assert len(spy.opened) == _planned_reads(rapids, rec, rep)

    @staticmethod
    def _clean_reads(rapids):
        """A clean restore's data, the last ``(level, index)`` it read
        and a system it read nothing from."""
        from repro.storage.filestore import _parse_filename

        with pytest.MonkeyPatch.context() as mp:
            spy = _Spy(mp)
            clean = rapids.restore("obj", strategy="naive").data
        idle = [
            s.system_id for s in rapids.cluster.systems
            if not any(p.startswith(s._dir) for p in spy.opened)
        ]
        _, j, i = _parse_filename(os.path.basename(spy.opened[-1]))
        return clean, (j, i), idle[-1]

    def test_a_placement_that_lost_its_fragment_falls_back_to_a_scan(
        self, stack, monkeypatch
    ):
        rapids, _ = stack
        clean, (j, i), idle = self._clean_reads(rapids)
        cl = rapids.cluster
        # The fragment moved to an idle system behind the record's back.
        os.replace(cl[i].root / _frag(j, i), cl[idle].root / _frag(j, i))
        spy = _Spy(monkeypatch)
        rep = rapids.restore("obj", strategy="naive")
        assert rep.degraded is None
        assert rep.data.tobytes() == clean.tobytes()
        rec = rapids.catalog.get_object("obj")
        # The open that found the home empty, then the scan's one read.
        assert len(spy.opened) == _planned_reads(rapids, rec, rep) + 1
        assert spy.opened[-1] == str(cl[idle].root / _frag(j, i))

    def test_a_placement_on_a_down_system_falls_back_to_a_scan(
        self, stack, monkeypatch
    ):
        rapids, _ = stack
        clean, (j, i), idle = self._clean_reads(rapids)
        cl = rapids.cluster
        # Fragment i was re-placed on the idle system, the copy at its
        # old home survived, and the new home is now down.
        shutil.copy(cl[i].root / _frag(j, i), cl[idle].root / _frag(j, i))
        rec = rapids.catalog.get_object("obj")
        rec.placements[j][i] = idle
        rapids.catalog.put_object(rec)
        cl.fail([idle])
        spy = _Spy(monkeypatch)
        rep = rapids.restore("obj", strategy="naive")
        assert rep.degraded is None
        assert rep.data.tobytes() == clean.tobytes()
        assert len(spy.opened) == _planned_reads(rapids, rec, rep)  # no spare


def _frag(level: int, index: int) -> str:
    from repro.storage.filestore import _fragment_filename

    return _fragment_filename("obj", level, index)

"""Tests for the process-parallel streaming prepare/restore engine.

The engine's contract has three legs, each covered here:

1. **Bit-identity** — ``parallelism="process"`` stores and restores
   exactly the bytes of the inline (``processes=1``) schedule, across
   shapes, dtypes and tile sizes (Hypothesis), and degrades identically
   under fault plans.
2. **Shared-memory hygiene** — the parent-owned arena never leaks a
   segment: not on success, not on worker crash
   (``BrokenProcessPool``), not on mid-pipeline exceptions.
3. **Streaming structure** — tiled fragments decode from any k of n
   fragment slices, the spool detects on-disk corruption, and the
   pipelined archival schedule respects its analytic bounds.
"""

import contextlib
import gc
import os
import warnings
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chaos import FaultInjector, FaultPlan, FaultSpec
from repro.core import RAPIDS
from repro.core.pipeline import PrepareReport
from repro.ec import ErasureCodec
from repro.ec.codec import encoded_fragment_len
from repro.metadata import MetadataCatalog
from repro.parallel import procpipe
from repro.parallel.procpipe import (
    AUTO_PROCESS_THRESHOLD,
    SharedArena,
    TileSource,
    resolve_mode,
    resolve_tiles,
)
from repro.refactor import Refactorer
from repro.storage import StorageCluster
from repro.transfer import paper_bandwidth_profile
from repro.transfer.pipelined import pipelined_archival

N_SYSTEMS = 8


def make_pipeline(tmp_path, tag="p", n=N_SYSTEMS, **kwargs):
    cluster = StorageCluster(paper_bandwidth_profile(n))
    catalog = MetadataCatalog(tmp_path / f"meta-{tag}")
    kwargs.setdefault("refactorer", Refactorer(4, num_planes=24))
    # Loose storage budget: the arrays here are tiny, so encoded sizes
    # are large relative to the original and the paper's omega would
    # leave the FT solver infeasible.
    kwargs.setdefault("omega", 20.0)
    return RAPIDS(cluster, catalog, **kwargs)


def serial_pipeline() -> dict:
    """``make_pipeline`` kwargs for a pipeline whose every pool is one wide."""
    return dict(ec_workers=1, refactorer=Refactorer(4, num_planes=24, workers=1))


def field(shape, dtype, seed=0):
    rng = np.random.default_rng(seed)
    x = np.linspace(0, 1, shape[0]).reshape((-1,) + (1,) * (len(shape) - 1))
    return (np.sin(4 * x) + 0.1 * rng.normal(size=shape)).astype(dtype)


def stored_bytes(pipeline, name, levels):
    """Every stored fragment's (payload, checksum), placement order."""
    out = []
    for j in range(levels):
        for i in range(pipeline.cluster.n):
            frag = pipeline.cluster[i].get(name, j, i)
            out.append((j, i, frag.payload, frag.checksum))
    return out


@contextlib.contextmanager
def _no_unclosed_files():
    """Fail if a file object opened in the block is garbage-collected
    while still open (CPython reports that as a ``ResourceWarning``)."""
    gc.collect()  # earlier garbage must not be blamed on the block
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
        gc.collect()
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert not leaks, [str(w.message) for w in leaks]


class TestResolveMode:
    def test_explicit_modes_pass_through(self):
        for mode in ("process", "thread"):
            assert resolve_mode(mode, 0) == mode

    def test_auto_threshold(self):
        assert resolve_mode(None, AUTO_PROCESS_THRESHOLD) == "process"
        assert resolve_mode(None, AUTO_PROCESS_THRESHOLD - 1) == "thread"
        assert resolve_mode("auto", AUTO_PROCESS_THRESHOLD) == "process"

    def test_invalid_mode_rejected(self):
        for mode in ("fork", "none"):
            with pytest.raises(ValueError, match="parallelism"):
                resolve_mode(mode, 100)


class TestSharedArena:
    def test_lease_release_unlinks(self):
        arena = SharedArena()
        shm = arena.lease(1024)
        name = shm.name
        assert arena.live_names == [name]
        arena.release(name)
        assert arena.live_names == []
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_close_unlinks_everything(self):
        arena = SharedArena()
        names = [arena.lease(64).name for _ in range(3)]
        arena.close()
        assert arena.live_names == []
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_peak_bytes_tracks_high_water_mark(self):
        with SharedArena() as arena:
            a = arena.lease(4096)
            b = arena.lease(4096)
            arena.release(a.name)
            arena.release(b.name)
            assert arena.peak_bytes >= 8192
            assert arena.active_bytes == 0
            assert arena.created == 2


class TestTileSource:
    def test_array_and_npy_sources_agree(self, tmp_path):
        data = field((24, 6, 5), np.float64)
        np.save(tmp_path / "obj.npy", data)
        with TileSource(data) as mem, TileSource(tmp_path / "obj.npy") as f:
            assert mem.shape == f.shape and mem.dtype == f.dtype
            for lo, hi in [(0, 7), (7, 24), (3, 4)]:
                np.testing.assert_array_equal(
                    mem.read_tile(lo, hi), f.read_tile(lo, hi)
                )

    def test_read_into_external_buffer(self, tmp_path):
        data = field((16, 4, 4), np.float32)
        np.save(tmp_path / "obj.npy", data)
        with TileSource(tmp_path / "obj.npy") as src:
            buf = bytearray(8 * src.row_nbytes)
            tile = src.read_tile(4, 12, out=buf)
            np.testing.assert_array_equal(tile, data[4:12])

    def test_fortran_order_rejected(self, tmp_path):
        data = np.asfortranarray(field((8, 4, 4), np.float64))
        np.save(tmp_path / "f.npy", data)
        # The rejected source must not leak the handle it opened.
        with _no_unclosed_files():
            with pytest.raises(ValueError, match="[Ff]ortran"):
                TileSource(tmp_path / "f.npy")

    def test_too_few_planes_rejected(self):
        with pytest.raises(ValueError, match="planes"):
            TileSource(np.zeros((1, 4), dtype=np.float64))

    def test_resolve_tiles_covers_extent(self):
        # (5, 2) and (6, 2): more tiles asked for than 2-plane tiles fit
        for extent, tile_planes, count in [(100, 16, 7), (5, 2, 2), (6, 2, 3)]:
            bounds = resolve_tiles((extent, 8, 8), 8, tile_planes=tile_planes)
            assert len(bounds) == count
            assert bounds[0][0] == 0 and bounds[-1][1] == extent
            for (a0, a1), (b0, b1) in zip(bounds, bounds[1:]):
                assert a1 == b0
            assert all(hi - lo >= 2 for lo, hi in bounds)


class TestBitIdentity:
    """Process mode must store and restore exactly the inline bytes."""

    @settings(max_examples=5, deadline=None)
    @given(
        planes=st.integers(min_value=8, max_value=28),
        width=st.integers(min_value=4, max_value=7),
        tile_planes=st.integers(min_value=2, max_value=9),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    # The one-tile boundary: tile_planes == planes is a single tile (no
    # pool, ``extra == {}``), one plane more is the first tiled geometry.
    @example(planes=8, width=4, tile_planes=8, dtype=np.float64, seed=0)
    @example(planes=9, width=4, tile_planes=8, dtype=np.float32, seed=1)
    def test_process_matches_inline(
        self, tmp_path_factory, planes, width, tile_planes, dtype, seed
    ):
        tmp = tmp_path_factory.mktemp("ident")
        data = field((planes, width, width), dtype, seed=seed)
        reports = {}
        pipes = {}
        for tag, procs in (("inline", 1), ("proc", 2)):
            p = make_pipeline(tmp, tag)
            reports[tag] = p.prepare(
                "obj", data, parallelism="process",
                processes=procs, tile_planes=tile_planes,
            )
            pipes[tag] = p
        ri, rp = reports["inline"], reports["proc"]
        assert ri.ft_config == rp.ft_config
        assert ri.level_sizes == rp.level_sizes
        assert ri.level_errors == rp.level_errors
        assert rp.extra.get("procpipe", {}).get("arena_leaked", []) == []
        levels = len(ri.level_sizes)
        assert stored_bytes(pipes["inline"], "obj", levels) == stored_bytes(
            pipes["proc"], "obj", levels
        )
        back_i = pipes["inline"].restore("obj").data
        back_p = pipes["proc"].restore(
            "obj", parallelism="process", processes=2
        ).data
        assert back_i is not None and back_p is not None
        np.testing.assert_array_equal(back_i, back_p)
        assert back_p.dtype == data.dtype and back_p.shape == data.shape

    #: One-tile geometry (``tile_planes`` >= planes): every engine
    #: setting must be the same prepare.  ``serial`` is the thread
    #: engine on a pipeline built with every pool one wide.
    ONE_TILE_MODES = {
        "serial": dict(parallelism="thread"),
        "thread-bounds": dict(parallelism="thread", measure_errors=False),
        "process-1": dict(parallelism="process", processes=1, tile_planes=32),
        "process-2": dict(parallelism="process", processes=2, tile_planes=32),
    }

    @pytest.mark.parametrize("mode", sorted(ONE_TILE_MODES))
    def test_one_tile_modes_store_identical_bytes(self, tmp_path, mode):
        data = field((20, 6, 5), np.float32, seed=3)
        ref = make_pipeline(tmp_path, "ref")
        r_ref = ref.prepare("obj", data, parallelism="thread")
        serial = serial_pipeline() if mode == "serial" else {}
        p = make_pipeline(tmp_path, mode, **serial)
        rep = p.prepare("obj", data, **self.ONE_TILE_MODES[mode])
        assert rep.extra == {}  # one tile: no pool, arena or spool to report
        assert rep.ft_config == r_ref.ft_config
        assert rep.level_sizes == r_ref.level_sizes
        levels = len(rep.level_sizes)
        assert stored_bytes(p, "obj", levels) == stored_bytes(ref, "obj", levels)
        assert "procpipe" not in p.catalog.get_object("obj").extra
        back = p.restore("obj", parallelism=self.ONE_TILE_MODES[mode]["parallelism"])
        np.testing.assert_array_equal(back.data, ref.restore("obj").data)

    def test_explicit_one_tile_table_restores_like_no_table(self, tmp_path):
        """Read-side normalisation: a record without a chunk table *is*
        the one-tile table."""
        data = field((18, 5, 6), np.float64, seed=5)
        p = make_pipeline(tmp_path)
        p.prepare("obj", data)
        stripped = p.restore("obj").data
        rec = p.catalog.get_object("obj")
        assert "procpipe" not in rec.extra
        rec.extra["procpipe"] = {
            "tiles": [[0, data.shape[0]]],
            "plans": [rec.extra.pop("plans")],
            "chunks": [
                [len(p.cluster[0].get("obj", j, 0).payload)]
                for j in range(rec.num_levels)
            ],
        }
        p.catalog.put_object(rec)
        explicit = p.restore("obj")
        assert explicit.levels_used == rec.num_levels
        np.testing.assert_array_equal(explicit.data, stripped)

    def test_restore_error_within_recorded_bound(self, tmp_path):
        data = field((24, 6, 6), np.float64)
        p = make_pipeline(tmp_path)
        rep = p.prepare("obj", data, parallelism="process", processes=2,
                        tile_planes=6)
        res = p.restore("obj", parallelism="process", processes=2)
        achieved = float(
            np.abs(res.data - data).max() / np.abs(data).max()
        )
        assert achieved <= rep.level_errors[res.levels_used - 1] * (1 + 1e-9)

    def test_prepare_timing_keys_match_thread_path(self, tmp_path):
        data = field((20, 5, 5), np.float64)
        p = make_pipeline(tmp_path)
        rep = p.prepare("obj", data, parallelism="process", processes=1)
        assert set(rep.timings) == {
            "read", "refactor", "ft_optimize", "ec_encode", "write",
            "metadata",
        }
        res = p.restore("obj")
        assert set(res.timings) == {
            "gather_optimize", "gather", "ec_decode", "reconstruct",
        }

    def test_npy_source_matches_array_source(self, tmp_path):
        data = field((20, 5, 5), np.float64)
        np.save(tmp_path / "obj.npy", data)
        p_arr = make_pipeline(tmp_path, "arr")
        p_npy = make_pipeline(tmp_path, "npy")
        r_arr = p_arr.prepare("obj", data, parallelism="process",
                              processes=2, tile_planes=5)
        r_npy = p_npy.prepare("obj", tmp_path / "obj.npy",
                              parallelism="process", processes=2,
                              tile_planes=5)
        assert r_arr.level_sizes == r_npy.level_sizes
        levels = len(r_arr.level_sizes)
        assert stored_bytes(p_arr, "obj", levels) == stored_bytes(
            p_npy, "obj", levels
        )

    def test_fragment_files_written(self, tmp_path):
        """A multi-tile prepare leaves one container file per fragment on
        a file-backed cluster, each naming what it holds."""
        from repro.formats import read_fragment_file
        from repro.storage import FileStorageCluster

        data = field((16, 5, 5), np.float64)
        cluster = FileStorageCluster(
            tmp_path / "cluster", bandwidths=paper_bandwidth_profile(N_SYSTEMS)
        )
        catalog = MetadataCatalog(tmp_path / "meta")
        p = RAPIDS(cluster, catalog, refactorer=Refactorer(4, num_planes=24),
                   omega=20.0)
        rep = p.prepare("obj", data, parallelism="process", processes=1,
                        tile_planes=4)
        assert rep.extra["procpipe"]["num_tiles"] == 4
        files = sorted((tmp_path / "cluster").glob("system-*/*.rdc"))
        assert len(files) == len(rep.level_sizes) * N_SYSTEMS
        attrs, _ = read_fragment_file(files[-1])
        assert attrs["object_name"] == "obj"
        catalog.close()

    def test_serial_pipeline_matches_pooled(self, tmp_path):
        """Pool widths belong to the pipeline object and never change
        bytes: a one-wide pipeline stores what the default one stores."""
        data = field((16, 5, 5), np.float64)
        ref = make_pipeline(tmp_path, "ref")
        r_ref = ref.prepare("obj", data)
        p = make_pipeline(tmp_path, "serial", **serial_pipeline())
        rep = p.prepare("obj", data)
        assert (p.ec_workers, p.refactorer.workers) == (1, 1)
        levels = len(rep.level_sizes)
        assert rep.level_sizes == r_ref.level_sizes
        assert stored_bytes(p, "obj", levels) == stored_bytes(ref, "obj", levels)
        np.testing.assert_array_equal(
            p.restore("obj").data, ref.restore("obj").data
        )


class TestPooledHandOver:
    """A pooled multi-tile restore returns the segment its workers filled."""

    @pytest.fixture()
    def prepared(self, tmp_path):
        from repro.datasets import nyx_temperature

        data = nyx_temperature((128, 64, 64)).astype(np.float64)
        p = make_pipeline(tmp_path)
        rep = p.prepare("obj", data, parallelism="process", processes=2,
                        tile_planes=32)
        assert rep.extra["procpipe"]["num_tiles"] == 4
        return p, data

    def pooled(self, p):
        return p.restore("obj", parallelism="process", processes=2).data

    def test_result_is_an_ordinary_array(self, prepared):
        p, data = prepared
        inline = p.restore("obj", processes=1).data
        back = self.pooled(p)
        assert back.dtype == data.dtype and back.shape == data.shape
        assert back.flags.writeable and back.flags.c_contiguous
        np.testing.assert_array_equal(back, inline)
        gc.collect()
        np.testing.assert_array_equal(back, inline)
        again = self.pooled(p)  # a second arena must not reuse the pages
        np.testing.assert_array_equal(back, inline)
        np.testing.assert_array_equal(again, inline)
        back[0, 0, 0] += 1.0  # writes land in this result only
        np.testing.assert_array_equal(again, inline)

    def test_no_object_sized_allocation(self, prepared):
        """The output lives in the workers' segment: nothing the parent
        allocates during the restore is as large as the object."""
        import tracemalloc

        p, data = prepared
        tracemalloc.start()
        try:
            back = self.pooled(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back.nbytes == data.nbytes
        assert peak < data.nbytes, peak / data.nbytes


class TestDegradedRestores:
    @pytest.fixture()
    def prepared(self, tmp_path):
        data = field((24, 6, 6), np.float64)
        p = make_pipeline(tmp_path)
        rep = p.prepare("obj", data, parallelism="process", processes=2,
                        tile_planes=6)
        return p, data, rep

    def _restore_under(self, pipeline, plan, **kwargs):
        injector = FaultInjector(plan)
        pipeline.attach_injector(injector)
        injector.apply_outages(pipeline.cluster)
        try:
            return pipeline.restore("obj", **kwargs)
        finally:
            pipeline.attach_injector(None)
            pipeline.cluster.restore_all()

    def test_outages_degrade_to_recoverable_prefix(self, prepared):
        p, data, rep = prepared
        # One more outage than the deepest (least-protected) level
        # tolerates: exactly the leading levels with m >= failures
        # survive.
        failures = rep.ft_config[-1] + 1
        expected = 0
        for m in rep.ft_config:
            if m < failures:
                break
            expected += 1
        plan = FaultPlan.outages(range(failures))
        res = self._restore_under(p, plan)
        assert res.levels_used == expected < len(rep.level_sizes)
        if expected:
            achieved = float(
                np.abs(res.data - data).max() / np.abs(data).max()
            )
            assert achieved <= rep.level_errors[expected - 1] * (1 + 1e-9)
        else:
            assert res.data is None

    def test_decode_fault_degrades_not_raises(self, prepared):
        p, data, rep = prepared
        deepest = len(rep.level_sizes) - 1
        plan = FaultPlan(specs=(
            FaultSpec(site="ec.decode", effect="error",
                      where={"level": deepest}),
        ))
        res = self._restore_under(p, plan)
        assert res.degraded is not None
        assert res.levels_used == deepest  # prefix below the fault
        assert any(f.stage == "decode" for f in res.degraded.failures)
        assert res.data is not None

    def test_degraded_bytes_match_clean_prefix(self, prepared):
        """A degraded restore returns the same bytes as a clean restore
        capped at the same prefix (target_error path)."""
        p, data, rep = prepared
        deepest = len(rep.level_sizes) - 1
        plan = FaultPlan(specs=(
            FaultSpec(site="ec.decode", effect="error",
                      where={"level": deepest}),
        ))
        degraded = self._restore_under(p, plan)
        clean = p.restore(
            "obj", target_error=rep.level_errors[degraded.levels_used - 1]
        )
        assert clean.levels_used == degraded.levels_used
        np.testing.assert_array_equal(degraded.data, clean.data)


def _crashing_refactor(block, config, *, measure_errors=False):
    """Dies hard in pool workers; behaves normally in the parent.

    The parent refactors the profile tile with the same stage callable,
    so an unconditional crash would take pytest down with it.
    """
    from repro.refactor.refactorer import refactor_block as real

    if os.getpid() == _crashing_refactor.parent_pid:
        return real(block, config, measure_errors=measure_errors)
    os._exit(13)


class TestArenaHygiene:
    def test_no_segments_leaked_on_success(self, tmp_path, monkeypatch):
        created = []
        real_lease = SharedArena.lease

        def spy_lease(self, nbytes):
            shm = real_lease(self, nbytes)
            created.append(shm.name)
            return shm

        monkeypatch.setattr(SharedArena, "lease", spy_lease)
        data = field((24, 6, 6), np.float64)
        p = make_pipeline(tmp_path)
        rep = p.prepare("obj", data, parallelism="process", processes=2,
                        tile_planes=6)
        before = len(created)
        back = p.restore("obj", parallelism="process", processes=2).data
        assert back is not None
        assert len(created) > before, "the restore should have used the pool"
        assert rep.extra["procpipe"]["arena_segments"] > 0
        # The restored array maps the output segment, but no name of it
        # (or of any other segment) outlives the call.
        for name in created:
            assert not (Path("/dev/shm") / name).exists(), name
        assert back.shape == data.shape  # alive while the names were checked

    def test_worker_crash_unlinks_all_segments(self, tmp_path, monkeypatch):
        """A worker dying mid-task (BrokenProcessPool) must not leak."""
        created = []
        real_lease = SharedArena.lease

        def spy_lease(self, nbytes):
            shm = real_lease(self, nbytes)
            created.append(shm.name)
            return shm

        monkeypatch.setattr(SharedArena, "lease", spy_lease)
        # Pool workers are forked from this (patched) parent, so they
        # inherit the crashing stage callable.
        _crashing_refactor.parent_pid = os.getpid()
        monkeypatch.setattr(procpipe, "refactor_block", _crashing_refactor)
        data = field((24, 6, 6), np.float64)
        p = make_pipeline(tmp_path)
        with pytest.raises(Exception) as excinfo:
            p.prepare("obj", data, parallelism="process", processes=2,
                      tile_planes=6)
        assert isinstance(
            excinfo.value, (BrokenProcessPool, OSError, RuntimeError)
        )
        assert created, "crash must have happened after arena leases"
        for name in created:
            assert not (Path("/dev/shm") / name).exists(), name

    def test_spool_detects_on_disk_corruption(self, tmp_path, monkeypatch):
        """Flipping spooled bytes must fail the running-CRC readback."""
        real_read = procpipe._FragmentSpool.read_fragment
        tampered = {}

        def tamper_then_read(self, level, index):
            if not tampered:
                path = self.dir / f"l{level}.f{index:03d}.chunk"
                blob = bytearray(path.read_bytes())
                blob[0] ^= 0xFF
                path.write_bytes(bytes(blob))
                tampered["done"] = True
            return real_read(self, level, index)

        monkeypatch.setattr(
            procpipe._FragmentSpool, "read_fragment", tamper_then_read
        )
        data = field((16, 5, 5), np.float64)
        p = make_pipeline(tmp_path)
        # Only multi-tile prepares spool (one tile stays in memory).
        with pytest.raises(OSError, match="running CRC"):
            p.prepare("obj", data, parallelism="process", processes=1,
                      tile_planes=4)

    def test_spool_closes_opened_files_when_an_open_fails(
        self, tmp_path, monkeypatch
    ):
        spool_dir = tmp_path / "spool"
        # A directory where the third chunk file goes fails that open.
        (spool_dir / "l0.f002.chunk").mkdir(parents=True)
        monkeypatch.setattr(
            procpipe.tempfile, "mkdtemp", lambda **kw: str(spool_dir)
        )
        with _no_unclosed_files():
            with pytest.raises(OSError):
                procpipe._FragmentSpool(2, 4)
        assert not spool_dir.exists()


class TestTiledLayout:
    def test_chunk_table_matches_fragment_lengths(self, tmp_path):
        data = field((24, 6, 6), np.float64)
        p = make_pipeline(tmp_path)
        rep = p.prepare("obj", data, parallelism="process", processes=1,
                        tile_planes=6)
        rec = p.catalog.get_object("obj")
        pp = rec.extra["procpipe"]
        codec_n = p.cluster.n
        for j, chunk_row in enumerate(pp["chunks"]):
            k = codec_n - rec.ft_config[j]
            frag = p.cluster[0].get("obj", j, 0)
            assert sum(chunk_row) == len(frag.payload)
            assert len(chunk_row) == len(pp["tiles"])

    def test_any_k_fragment_slices_decode_every_tile(self, tmp_path):
        data = field((20, 5, 5), np.float64)
        p = make_pipeline(tmp_path)
        p.prepare("obj", data, parallelism="process", processes=1,
                  tile_planes=5)
        rec = p.catalog.get_object("obj")
        pp = rec.extra["procpipe"]
        codec = ErasureCodec(p.cluster.n)
        from repro.ec import ECConfig

        j = 0
        k = p.cluster.n - rec.ft_config[j]
        frags = {
            i: np.frombuffer(
                p.cluster[i].get("obj", j, i).payload, dtype=np.uint8
            )
            for i in range(p.cluster.n - k, p.cluster.n)  # parity-heavy k
        }
        offset = 0
        total = 0
        for t, size in enumerate(pp["chunks"][j]):
            sliced = {
                i: arr[offset : offset + size] for i, arr in frags.items()
            }
            payload = codec.decode_level(
                config=ECConfig(p.cluster.n, rec.ft_config[j]),
                fragments=sliced,
            )
            total += len(payload)
            offset += size
        assert total == rec.level_sizes[j]

    def test_encoded_fragment_len_matches_codec(self):
        codec = ErasureCodec(8)
        for payload_len in (0, 1, 7, 100, 4096, 65537):
            enc = codec.encode_level(bytes(payload_len), 2)
            assert enc.fragment_nbytes == encoded_fragment_len(
                6, payload_len
            )


class TestPipelinedArchival:
    def test_empty_events(self):
        sched = pipelined_archival([], [1e6, 1e6])
        assert sched.completion == 0.0 and sched.num_chunks == 0

    def test_bounds_hold(self):
        events = [(0.1 * i, 50_000.0) for i in range(10)]
        sched = pipelined_archival(events, [1e5, 2e5, 4e5])
        assert sched.lower_bound <= sched.completion <= (
            sched.sequential_completion + 1e-12
        )
        assert sched.overlap_saving >= 0.0

    def test_overlap_beats_sequential(self):
        # Compute and transfer comparable: overlap must win clearly.
        events = [(0.5 * i, 100_000.0) for i in range(8)]
        sched = pipelined_archival(events, [2e5, 2e5])
        assert sched.completion < sched.sequential_completion
        assert sched.transfer_makespan > 0

    def test_pure_transfer_bound(self):
        # Everything ready at t=0: completion equals transfer makespan.
        events = [(0.0, 1000.0)] * 5
        sched = pipelined_archival(events, [1e4])
        assert sched.completion == pytest.approx(sched.transfer_makespan)

    def test_rejects_bad_bandwidths(self):
        with pytest.raises(ValueError):
            pipelined_archival([(0.0, 1.0)], [0.0])


class TestAutoHeuristic:
    def test_small_objects_stay_on_thread_path(self, tmp_path):
        data = field((16, 5, 5), np.float64)  # far below the threshold
        p = make_pipeline(tmp_path)
        rep = p.prepare("obj", data)
        assert rep.extra == {}  # thread path: no procpipe diagnostics
        rec = p.catalog.get_object("obj")
        assert "procpipe" not in rec.extra

    def test_degenerate_shape_falls_back(self, tmp_path):
        p = make_pipeline(tmp_path)
        data = field((2, 4, 4), np.float64)
        rep = p.prepare("obj", data, parallelism="process", processes=2)
        assert isinstance(rep, PrepareReport)
        assert p.restore("obj").data is not None

    @pytest.mark.parametrize("planes", [1, 2])
    def test_uncuttable_npy_behaves_like_in_memory(self, tmp_path, planes):
        """A source too thin to tile is one tile whether it arrives as
        an array or as a ``.npy`` path.  Two planes prepare and restore
        identically; one plane is refused by the refactorer (no axis may
        be shorter than 2) with the same error either way — the file
        form used to fail earlier, inside TileSource, with a different
        one."""
        data = field((planes, 12, 10), np.float32, seed=9)
        np.save(tmp_path / "thin.npy", data)
        p_mem = make_pipeline(tmp_path, "mem")
        p_npy = make_pipeline(tmp_path, "npy")
        if planes < 2:
            for p, source in ((p_mem, data), (p_npy, tmp_path / "thin.npy")):
                with pytest.raises(ValueError, match="every axis must have"):
                    p.prepare("obj", source, parallelism="process")
            return
        r_mem = p_mem.prepare("obj", data, parallelism="process")
        r_npy = p_npy.prepare("obj", tmp_path / "thin.npy",
                              parallelism="process")
        assert r_npy.ft_config == r_mem.ft_config
        assert r_npy.level_errors == r_mem.level_errors
        assert r_npy.extra == r_mem.extra == {}
        levels = len(r_mem.level_sizes)
        assert stored_bytes(p_npy, "obj", levels) == stored_bytes(
            p_mem, "obj", levels
        )
        np.testing.assert_array_equal(
            p_npy.restore("obj").data, p_mem.restore("obj").data
        )

"""The RAPIDS pipeline: the paper's four components wired together (§4).

``prepare`` runs the data preparation phase — read, refactor (pMGARD
substitute), fault-tolerance optimisation (Algorithm 1), erasure coding
per level, fragment placement, metadata registration, and the WAN
distribution model — and ``restore`` runs the restoration phase — gathering
optimisation, fragment gathering, erasure decoding, and progressive
reconstruction.  Every step is individually timed so the Fig. 5/6
per-operation breakdowns fall out of the reports.
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path

import numpy as np

from ..chaos.degraded import DegradedRestore, LevelFailure
from ..chaos.injector import InjectedFault
from ..chaos.retry import RetryPolicy
from ..ec import ECConfig, ErasureCodec
from ..formats import crc32
from ..healing.ledger import DurabilityLedger
from ..metadata import MetadataCatalog, ObjectRecord
from ..parallel import procpipe
from ..parallel.threads import (
    auto_workers, default_workers, ordered_map, thread_map,
)
from ..refactor import Refactorer, error_prefix
from ..storage import FRAGMENT_ERRORS, StorageCluster
from ..storage.system import CorruptFragmentError, StoredFragment
from ..transfer import phase_latency, pipelined_archival, refactored_distribution
from .adaptive import BandwidthTracker, adaptive_strategy
from .availability import refactored_storage_overhead
from .ft_optimizer import FTProblem, FTSolution, brute_force
from .gathering import (
    GatheringOutcome,
    exact_strategy,
    gathering_latency,
    naive_strategy,
    plan_retrieval,
    random_strategy,
)

__all__ = ["RAPIDS", "PrepareReport", "RestoreReport"]

#: Failure classes graceful degradation may absorb per level: every
#: fragment error — injected faults, outages, missing/corrupt fragments
#: and records are all among them — plus the decode/deserialisation
#: errors a corrupt payload can surface as.  Anything outside this tuple
#: (a genuine programming error) propagates.
_DEGRADABLE = (*FRAGMENT_ERRORS, struct.error, zlib.error)


@dataclass
class PrepareReport:
    """Everything the preparation phase produced and how long it took."""

    name: str
    ft_config: list[int]
    level_sizes: list[int]
    level_errors: list[float]
    storage_overhead: float
    expected_error: float
    distribution_latency: float
    network_bytes: float
    timings: dict[str, float] = field(default_factory=dict)
    #: Multi-tile diagnostics (``"procpipe"``: pool, arena and spool
    #: stats; ``"archival"``: the pipelined schedule); empty for one tile.
    extra: dict = field(default_factory=dict)


@dataclass
class RestoreReport:
    """Result of the restoration phase.

    ``degraded`` is ``None`` for a clean restore; under faults it is the
    :class:`~repro.chaos.DegradedRestore` report describing what failed,
    what was retried, and which level prefix was actually delivered.
    """

    name: str
    data: np.ndarray | None
    levels_used: int
    achieved_error: float
    gathering_latency: float
    timings: dict[str, float] = field(default_factory=dict)
    degraded: DegradedRestore | None = None


class _FragmentList:
    """In-memory fragment sink of a one-tile prepare.

    The read side of :class:`repro.parallel.procpipe._FragmentSpool`
    without the disk: a one-tile level is one chunk per fragment, so the
    commit stage serialises each fragment straight from the encoder's
    arrays, one at a time.
    """

    def __init__(self) -> None:
        self._levels: dict[int, list[np.ndarray]] = {}

    def append(self, level: int, fragments: list[np.ndarray]) -> None:
        self._levels[level] = fragments

    def read_fragment(self, level: int, index: int) -> tuple[bytes, int]:
        blob = np.ascontiguousarray(self._levels[level][index]).tobytes()
        return blob, crc32(blob)


@dataclass
class _RestoreRun:
    """One restore's state through its plan -> gather -> decode ->
    reconstruct steps; ``outcome`` selects the planned level prefix."""

    name: str
    rec: ObjectRecord
    outcome: GatheringOutcome
    faults_before: int
    failures: list[LevelFailure] = field(default_factory=list)
    crc_erasures: list[int] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)

    @contextmanager
    def timed(self, stage: str):
        t0 = time.perf_counter()
        yield
        self.timings[stage] = self.timings.get(stage, 0.0) + time.perf_counter() - t0


class RAPIDS:
    """The full RAPIDS system over a storage cluster and metadata catalog.

    Parameters
    ----------
    cluster:
        The geo-distributed storage systems (with bandwidth estimates).
    catalog:
        Metadata catalog; owns reconstruction info and fragment locations.
    refactorer:
        The progressive refactorer (defaults to 4 components).
    omega:
        Storage-overhead budget for the FT optimiser (Eq. 6).
    p:
        Per-system outage probability (0.01 per the OLCF report).
    ec_workers:
        Thread fan-out for erasure encode/decode across levels.
        ``None`` (the default) is decided by the object's size, per
        call, by the one pool-size rule
        (:func:`~repro.parallel.threads.auto_workers`): an object below
        about a million elements encodes and decodes inline with no
        thread started, a larger one fans out one worker per CPU.  An
        explicit count is always honoured; 1 forces the inline serial
        path.  The refactoring stages' fan-out is the refactorer's own
        ``workers``.
    """

    def __init__(
        self,
        cluster: StorageCluster,
        catalog: MetadataCatalog,
        *,
        refactorer: Refactorer | None = None,
        omega: float = 0.25,
        p: float = 0.01,
        ec_workers: int | None = None,
    ) -> None:
        self.cluster = cluster
        self.catalog = catalog
        self.refactorer = refactorer if refactorer is not None else Refactorer(4)
        self.omega = omega
        self.p = p
        self.ec_workers = ec_workers
        self.codec = ErasureCodec(cluster.n)
        #: Per-fetch retry policy used by restoration; base=0 keeps the
        #: retries immediate (there is no simulated clock on this path).
        self.retry_policy = RetryPolicy(max_attempts=3, base=0.0)
        #: Durability ledger (see :mod:`repro.healing`): ``prepare``
        #: records each level's expected fragment set; ``restore``
        #: consults the scrubbed headroom; the scrubber and repair
        #: engine keep it honest.
        self.ledger = DurabilityLedger(catalog)
        #: Optional per-fetch observability hook: called with
        #: ``(system_id, RetryOutcome)`` after every checked fragment
        #: fetch.  The archive service wires this to its per-system
        #: circuit breakers — retry exhaustion trips a breaker, a clean
        #: fetch closes it.
        self.fetch_observer = None
        self.injector = None

    def attach_injector(self, injector) -> None:
        """Attach (or clear) a chaos injector on the whole stack: the
        storage cluster, the metadata store, the codec, and the pipeline's
        own phase-boundary checks (sites ``pipeline.prepare``/``restore``)."""
        self.injector = injector
        self.cluster.attach_injector(injector)
        attach = getattr(self.catalog, "attach_injector", None)
        if attach is not None:
            attach(injector)
        self.codec.attach_injector(injector)

    # -- preparation phase -------------------------------------------------

    def prepare(
        self,
        name: str,
        data: np.ndarray | str | Path,
        *,
        measure_errors: bool = True,
        parallelism: str | None = None,
        processes: int | None = None,
        tile_planes: int | None = None,
    ) -> PrepareReport:
        """Run the full data-preparation phase for one data object.

        One stage sequence for every object, as a list of one or more
        axis-0 tiles: refactor tile 0 in the parent -> FT solve on its
        exact serialised sizes x the tile count -> per-(level, tile) EC
        encode into one fragment sink -> commit (every fragment placed,
        then one object record carrying their checksums, sizes and
        placements) -> distribution model.

        ``data`` is the array itself or the path of a ``.npy`` file
        (multi-tile prepares stream file sources tile-by-tile, never
        holding the whole object resident).  Fragments are placed into
        the cluster; a :class:`~repro.storage.FileStorageCluster` keeps
        each one as a self-describing container file (the HDF5/ADIOS
        step of §4.1).

        ``measure_errors`` is honoured only for one-tile objects.
        ``False`` reports the closed-form error bounds instead of
        measured per-prefix errors and lets component ``j``'s erasure
        encode overlap component ``j + 1``'s serialisation (accounted
        under ``ec_encode``, the window it overlaps).  Multi-tile objects
        always report bound-derived ``level_errors``.

        ``parallelism`` only decides the tile bounds and where tiles 1..
        are refactored.  ``"process"`` cuts ``tile_planes`` planes per
        tile (~8 MiB by default) and runs them on ``processes`` pool
        workers with shared-memory transport and bounded peak RSS —
        inline when ``processes=1`` or a chaos injector is attached;
        ``"thread"`` keeps the object one tile with thread fan-out.
        ``None`` (the default) means ``"process"`` from
        ``AUTO_PROCESS_THRESHOLD`` bytes up, else ``"thread"``.  An
        object that cannot be cut (fewer than 2 planes, or
        ``tile_planes`` covering it) is one tile in every mode, stored
        byte-identically by all.
        """
        timings: dict[str, float] = {}
        if self.injector is not None:
            self.injector.check("pipeline.prepare", name=name)
        source, tiles = self._cut_tiles(data, parallelism, tile_planes)
        num_tiles = len(tiles)
        processes = self._tile_processes(processes)

        with ExitStack() as stack:
            t0 = time.perf_counter()
            if num_tiles == 1:
                tile0 = np.ascontiguousarray(source)
                shape, dtype, nbytes = tile0.shape, tile0.dtype, tile0.nbytes
            else:
                src = stack.enter_context(procpipe.TileSource(source))
                arena = stack.enter_context(procpipe.SharedArena())
                shape, dtype, nbytes = src.shape, src.dtype, src.nbytes
                tile0 = src.read_tile(*tiles[0])
            timings["read"] = time.perf_counter() - t0

            # Tile 0 is refactored in the parent in every mode.  Only a
            # sole tile can have its per-prefix errors measured; otherwise
            # its payloads serialise lazily, while the encoder consumes.
            t0 = time.perf_counter()
            if num_tiles == 1 and measure_errors:
                obj = self.refactorer.refactor(tile0)
                sizes, payloads = obj.sizes, obj.payloads
            else:
                stream = self.refactorer.refactor_stream(tile0)
                obj, sizes = stream.obj, stream.sizes
                payloads = (payload for _, payload in stream)
            del tile0
            timings["refactor"] = time.perf_counter() - t0

            t0 = time.perf_counter()
            sol = self._optimize_ft(
                [s * num_tiles for s in sizes], obj.errors, nbytes
            )
            timings["ft_optimize"] = time.perf_counter() - t0
            ms = sol.ms
            levels = len(sizes)

            # One fragment sink: a one-tile level is one chunk per
            # fragment and stays in memory; many tiles append chunks to
            # the CRC'd disk spool so nothing object-sized is resident.
            if num_tiles == 1:
                sink = _FragmentList()
            else:
                sink = stack.enter_context(
                    procpipe._FragmentSpool(levels, self.cluster.n)
                )
            level_sizes = [0] * levels
            chunk_lens: list[list[int]] = [[] for _ in range(levels)]
            tile_plans: list[list[list[list[int]]]] = []
            tile_errors: list[tuple[list[float], float]] = []
            chunk_events: list[tuple[float, float]] = []
            ec_time = 0.0
            ec_map = stack.enter_context(ordered_map(min(
                auto_workers(self.ec_workers, int(np.prod(shape))), levels
            )))
            pipeline_start = time.perf_counter()

            def encode(payload, j: int):
                return self.codec.encode_level(payload, ms[j], level_index=j)

            def consume(payloads, errors, tile_max, plans) -> None:
                """EC-encode one tile's levels into the sink.

                On a pool, the GIL-releasing EC kernels encode level
                ``j`` while this thread is still drawing level ``j + 1``
                from ``payloads`` (the §4.1 preparation pipeline); a
                small object encodes each level inline as it is drawn.
                """
                nonlocal ec_time
                t_ec = time.perf_counter()
                for j, enc in enumerate(ec_map(encode, payloads, count())):
                    sink.append(j, enc.fragments)
                    chunk_lens[j].append(enc.fragment_nbytes)
                    level_sizes[j] += enc.payload_size
                    chunk_events.append(
                        (time.perf_counter() - pipeline_start,
                         float(enc.fragment_nbytes))
                    )
                tile_plans.append(plans)
                tile_errors.append((errors, tile_max))
                ec_time += time.perf_counter() - t_ec

            t_loop = time.perf_counter()
            consume(
                payloads, obj.errors, obj.data_max,
                procpipe.plans_as_lists(obj.plans),
            )
            if num_tiles > 1:
                procpipe.refactor_tiles(
                    src, tiles[1:], procpipe.refactorer_config(self.refactorer),
                    processes, arena, consume,
                )
                arena_leaked = arena.live_names
                sink.finish_writes()
            loop_wall = time.perf_counter() - t_loop
            # Pool-side refactoring of tiles 1.. shows up as the part of
            # the loop this thread did not spend encoding.
            timings["refactor"] += max(0.0, loop_wall - ec_time)
            timings["ec_encode"] = ec_time

            # Each tile's bound is relative to its own max; the global
            # relative error is the worst absolute error over tiles,
            # renormalised by the global max (exact for L-infinity, and
            # the identity for a sole tile).
            data_max = max(tile_max for _, tile_max in tile_errors)
            level_errors = [
                max(
                    errs[j] * (tile_max / data_max if data_max > 0 else 1.0)
                    for errs, tile_max in tile_errors
                )
                for j in range(levels)
            ]
            # A one-tile record carries no table: readers derive it
            # (ObjectRecord.tile_table), so the stored layout is the one
            # every earlier workspace already has.
            if num_tiles == 1:
                layout = {"plans": tile_plans[0]}
            else:
                layout = {"procpipe": {
                    "tiles": [[lo, hi] for lo, hi in tiles],
                    "plans": tile_plans,
                    "chunks": chunk_lens,
                }}
            record = ObjectRecord(
                name=name,
                shape=list(shape),
                dtype=str(dtype),
                level_sizes=level_sizes,
                level_errors=level_errors,
                ft_config=ms,
                n_systems=self.cluster.n,
                data_max=data_max,
                correction=obj.correction,
                extra={**layout, "expected_error": sol.expected_error},
            )
            self._commit(record, sink, timings)

        dist = phase_latency(
            refactored_distribution(
                [float(s) for s in level_sizes], ms, self.cluster.n,
                self.cluster.bandwidths,
            ),
            self.cluster.bandwidths,
        )

        extra: dict = {}
        if num_tiles > 1:
            extra["procpipe"] = {
                "mode": "process" if processes > 1 else "inline",
                "processes": processes,
                "num_tiles": num_tiles,
                "arena_segments": arena.created,
                "arena_peak_bytes": arena.peak_bytes,
                "arena_leaked": arena_leaked,
                "spooled_bytes": sink.spooled_bytes,
            }
            # EC encode of chunk (tile t, level j) overlaps the simulated
            # WAN shipping of earlier chunks: completion approaches
            # max(compute, transfer) instead of their sum.
            extra["archival"] = pipelined_archival(
                chunk_events, self.cluster.bandwidths
            ).as_dict()
        return PrepareReport(
            name=name,
            ft_config=ms,
            level_sizes=level_sizes,
            level_errors=level_errors,
            storage_overhead=refactored_storage_overhead(
                [float(s) for s in level_sizes], ms, self.cluster.n, nbytes
            ),
            expected_error=sol.expected_error,
            distribution_latency=dist.makespan,
            network_bytes=dist.total_bytes,
            timings=timings,
            extra=extra,
        )

    def _cut_tiles(self, data, parallelism, tile_planes):
        """Resolve ``parallelism`` and cut the object: ``(source, tiles)``.

        Only ``"process"`` cuts more than one tile; an object it cannot
        cut (fewer than 2 planes, or ``tile_planes`` covering it) and
        ``"thread"`` get the whole extent as tile 0, with ``source``
        loaded if it was a path — one tile is resident in the parent.
        """
        is_path = isinstance(data, (str, Path))
        nbytes = os.path.getsize(data) if is_path else int(data.nbytes)
        if procpipe.resolve_mode(parallelism, nbytes) == "process":
            # mmap: a file source only gives up its header here
            probe = np.load(data, mmap_mode="r") if is_path else np.asarray(data)
            if probe.ndim and probe.shape[0] >= 2:
                tiles = procpipe.resolve_tiles(
                    probe.shape, probe.dtype.itemsize, tile_planes
                )
                if len(tiles) > 1:
                    return data, tiles
        data = np.load(data) if is_path else np.asarray(data)
        return data, [(0, data.shape[0] if data.ndim else 0)]

    def _tile_processes(self, processes: int | None) -> int:
        """Pool width for the tiles of a multi-tile object.

        Under an injector tiles run inline (width 1): fault-plan
        occurrence windows see one deterministic operation order and the
        injector is never consulted from worker processes.
        """
        if processes is None:
            processes = default_workers()
        if processes < 1:
            raise ValueError("processes must be >= 1")
        return 1 if self.injector is not None else processes

    def _commit(
        self, record: ObjectRecord, sink, timings: dict[str, float]
    ) -> None:
        """Publish one prepared object, timing ``write`` and ``metadata``.

        Every fragment is read back from the sink one at a time
        (O(fragment) memory however large the object) and placed,
        fragment i of every level on system i.  Only then is the object
        record put, carrying each level's checksums, sizes and
        placements: one metadata write, so a reader never sees an object
        whose fragments are not all in place.  The levels start at full
        ``m_j`` headroom: the absent ``health/`` key, so only a key left
        by an earlier object of the same name is deleted.
        """
        name, n = record.name, self.cluster.n
        t0 = time.perf_counter()
        for j in range(record.num_levels):
            checksums: list[int] = []
            frag_sizes: list[int] = []
            for i in range(n):
                blob, crc = sink.read_fragment(j, i)
                checksums.append(crc)
                frag_sizes.append(len(blob))
                self.cluster[i].put(
                    StoredFragment(name, j, i, len(blob), blob, checksum=crc)
                )
            record.checksums.append(checksums)
            record.fragment_sizes.append(frag_sizes)
            record.placements.append(list(range(n)))
        timings["write"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        self.catalog.put_object(record)
        for j in range(record.num_levels):
            self.ledger.clear(name, j)
        timings["metadata"] = time.perf_counter() - t0

    def _optimize_ft(
        self, sizes: list[int], errors: list[float], original_size: int
    ) -> FTSolution:
        problem = FTProblem(
            n=self.cluster.n,
            p=self.p,
            sizes=tuple(float(s) for s in sizes),
            errors=tuple(errors),
            original_size=float(original_size),
            omega=self.omega,
        )
        return brute_force(problem)

    # -- restoration phase ---------------------------------------------------

    def restore(
        self,
        name: str,
        *,
        strategy: str = "optimized",
        target_error: float | None = None,
        avoid_systems=(),
        parallelism: str | None = None,
        processes: int | None = None,
    ) -> RestoreReport:
        """Run the restoration phase against the cluster's current failures.

        plan -> gather -> per-(level, tile) EC decode -> per-tile prefix
        reconstruction, over the record's tile table.  The level prefix is
        :func:`~repro.core.gathering.plan_retrieval`'s — the recoverable
        levels cut at the shortest prefix whose recorded error meets
        ``target_error`` (all of them when none does; NaN or a target
        <= 0 raises :class:`ValueError`) — less any suffix the durability
        ledger knows to be lost; ``strategy`` (``random`` / ``naive`` /
        ``optimized`` / ``adaptive``) picks the systems serving it —
        ``optimized`` is the exact §3.3 plan on the cluster's bandwidths,
        ``adaptive`` the same on the observed EWMA where there is one
        (so ``optimized`` until something is observed).  A restore
        writes nothing to the catalog.

        ``avoid_systems`` treats the listed system ids as failed for
        planning — the archive service passes its open circuit breakers
        here so restores stop rediscovering a down backend.  Advisory,
        not a fence: the spare-fragment path may still touch an avoided
        system when nothing else can serve a stripe (availability wins).

        Fault-driven failures degrade gracefully: when faults exceed a
        level's tolerance ``m_j``, restore delivers the deepest
        still-recoverable level prefix with its recorded error bound and
        attaches a structured :class:`~repro.chaos.DegradedRestore`
        report instead of raising.  A missing object raises
        :class:`KeyError` — that is a caller error, not a fault.
        ``parallelism`` / ``processes`` decide, as in :meth:`prepare`,
        whether the tiles of a multi-tile object reconstruct on a process
        pool into a shared output or inline.
        """
        run = self._plan_restore(name, strategy, target_error=target_error,
                                 avoid_systems=avoid_systems)
        if isinstance(run, RestoreReport):
            return run
        rows = self._fetch(run, run.outcome.levels_included)
        data, used = self._reconstruct(run, rows, parallelism, processes)
        return self._report(run, run.outcome, data, used)

    def restore_progressive(self, name: str):
        """Generator yielding successively refined reconstructions.

        The Fig. 1(b) refinement loop over one Naive plan of
        :meth:`restore`'s full prefix: each level is gathered and
        EC-decoded once, in order, and each yield reconstructs the prefix
        so far, so a full pass reads the fragments of one full restore.
        The yield for ``j`` levels is bit-identical to ``restore(name,
        strategy="naive", target_error=level_errors[j - 1])``,
        ``gathering_latency`` (the plan's first ``j`` columns) included;
        ``levels_used`` strictly increases.  A prefix that restore answers
        with a shorter one (an earlier level meets the same error) is not
        yielded, and an exact level (error 0, which no positive target
        asks for) comes with the full prefix.  ``timings`` hold the work
        done since the previous yield.
        """
        run = self._plan_restore(name)
        if isinstance(run, RestoreReport):
            return
        errors, levels = run.rec.level_errors, run.outcome.levels_included
        rows: list[list[bytes]] = []
        for j in levels:
            rows += self._fetch(run, [j])
            if len(rows) <= j:
                return
            wanted = error_prefix(errors, errors[j]) if errors[j] > 0 else len(levels)
            if wanted == j + 1:
                data, used = self._reconstruct(run, rows, None, None)
                if used == wanted:
                    yield self._report(run, run.outcome.prefix(used), data, used)

    def _plan_restore(
        self, name: str, strategy: str = "naive", *,
        target_error: float | None = None, avoid_systems=(),
    ) -> _RestoreRun | RestoreReport:
        """The plan step: load the record, decide the level prefix and
        pick the systems serving it.  Returns the finished report instead
        when an object-wide fault stops the restore or no level is to be
        gathered."""
        faults_before = len(self.injector.log) if self.injector is not None else 0
        try:
            if self.injector is not None:
                self.injector.check("pipeline.restore", name=name)
        except InjectedFault as exc:
            failure = LevelFailure(-1, "pipeline", repr(exc))
            return self._degraded_empty(name, [failure], faults_before)

        meta = self.retry_policy.call(
            lambda: self.catalog.get_object(name),
            retry_on=(RuntimeError, OSError),
        )
        if not meta.ok:
            failure = LevelFailure(-1, "metadata", repr(meta.error),
                                   attempts=meta.attempts, retried=meta.retried)
            return self._degraded_empty(name, [failure], faults_before)
        rec = meta.value
        failed = self.cluster.failed_ids()
        if avoid_systems:
            failed = sorted(set(failed) | {int(s) for s in avoid_systems})
        planned = plan_retrieval(
            rec, failed, self.cluster.bandwidths, target_error=target_error
        )
        levels = self._cap_by_headroom(rec, list(range(planned)))
        if not levels:
            return RestoreReport(
                name=name, data=None, levels_used=0, achieved_error=1.0,
                gathering_latency=0.0, timings={"gather_optimize": 0.0},
            )
        t0 = time.perf_counter()
        outcome = self._select(strategy, [float(s) for s in rec.level_sizes],
                               rec.ft_config, failed, max_levels=len(levels))
        run = _RestoreRun(name, rec, outcome, faults_before)
        run.timings["gather_optimize"] = time.perf_counter() - t0
        return run

    def _fetch(self, run: _RestoreRun, levels) -> list[list[bytes]]:
        """Gather, then EC-decode, ``levels`` in order: one payload row
        per level, ending at the first level lost."""
        gathered: dict[int, dict[int, np.ndarray]] = {}
        with run.timed("gather"):
            for j in levels:
                try:
                    gathered[j] = self._gather_level(j, run)
                except _DEGRADABLE as exc:
                    # Progressive reconstruction needs a contiguous level
                    # prefix: a lost level makes every deeper one useless.
                    run.failures.append(LevelFailure(j, "gather", repr(exc)))
                    break
        with run.timed("ec_decode"):
            return self._decode_levels(
                run.rec, sorted(gathered), gathered, run.failures
            )

    def _report(
        self, run: _RestoreRun, outcome: GatheringOutcome,
        data: np.ndarray | None, used: int,
    ) -> RestoreReport:
        """``outcome``'s report, with the timings since the last one."""
        rec = run.rec
        latency = gathering_latency(
            outcome, [float(s) for s in rec.level_sizes], rec.ft_config,
            self.cluster.bandwidths,
        )
        achieved = rec.level_errors[used - 1] if used else 1.0
        degraded = None
        if run.failures:
            requested = list(outcome.levels_included)
            degraded = DegradedRestore(
                name=run.name,
                requested_levels=requested,
                recovered_levels=requested[:used],
                abandoned_levels=requested[used:],
                failures=list(run.failures),
                error_bound=achieved if used else None,
                injected_faults=self._injected_since(run.faults_before),
                corrupt_fragments=len(run.crc_erasures),
            )
        timings, run.timings = run.timings, {}
        return RestoreReport(
            name=run.name,
            data=data,
            levels_used=used,
            achieved_error=achieved,
            gathering_latency=latency,
            timings=timings,
            degraded=degraded,
        )

    def _cap_by_headroom(self, rec: ObjectRecord, levels: list[int]) -> list[int]:
        """Drop the level suffix the ledger knows to be unrecoverable.

        A scrubbed headroom below zero (the level's ``health/`` key)
        means more fragments of that level are damaged at rest than its
        ``m_j`` tolerates; gathering it (and, per progressive
        reconstruction, anything deeper) would only burn transfers
        before failing.  So does a level the record carries no fragment
        set for.  Headroom is advisory: any fault reading it leaves the
        level list untouched.
        """
        try:
            for pos, j in enumerate(levels):
                entry = self.ledger.entry(rec, j)
                if entry is None or entry.headroom < 0:
                    return levels[:pos]
        except _DEGRADABLE:
            pass
        return levels

    def _degraded_empty(
        self, name: str, failures: list[LevelFailure], faults_before: int
    ) -> RestoreReport:
        """A nothing-recovered report for object-wide restore failures."""
        return RestoreReport(
            name=name, data=None, levels_used=0, achieved_error=1.0,
            gathering_latency=0.0, timings={"gather_optimize": 0.0},
            degraded=DegradedRestore(
                name=name,
                failures=failures,
                injected_faults=self._injected_since(faults_before),
            ),
        )

    def _injected_since(self, start: int) -> dict:
        """Counts per (site, effect) of faults injected since ``start``."""
        counts: dict[str, int] = {}
        if self.injector is not None:
            for fr in self.injector.log[start:]:
                k = f"{fr.site}:{fr.effect}"
                counts[k] = counts.get(k, 0) + 1
        return counts

    def _decode_levels(
        self, rec: ObjectRecord, level_ids, gathered,
        failures: list[LevelFailure],
    ) -> list[list[bytes]]:
        """EC-decode gathered levels into per-(level, tile) payloads.

        Each (level, tile) chunk decodes from the matching slice of any
        k fragments.  Returns one payload row per surviving level,
        truncated at the first failed level — deeper ones are useless
        without it.  Without an injector the chunks decode through
        ``thread_map`` — on a pool only for an object the pool-size rule
        deems large enough; with one attached (or after a threaded
        failure, to find the surviving prefix) decoding runs serially in
        (level, tile) order, so the plan's occurrence windows see a
        deterministic sequence and the injector is never consulted from
        worker threads.
        """
        if not level_ids:
            return []
        chunks = rec.tile_table()[2]
        jobs: list[tuple[int, int, int]] = []
        for j in level_ids:
            offset = 0
            for size in chunks[j]:
                jobs.append((j, offset, size))
                offset += size
        num_tiles = len(jobs) // len(level_ids)

        def _decode(job: tuple[int, int, int]) -> bytes:
            j, offset, size = job
            return self.codec.decode_chunk(
                ECConfig(self.cluster.n, rec.ft_config[j]), gathered[j],
                offset, size, level_index=j,
            )

        if self.injector is None:
            workers = auto_workers(
                self.ec_workers, int(np.prod(rec.shape, dtype=np.int64))
            )
            try:
                flat = thread_map(_decode, jobs, workers=min(workers, len(jobs)))
                return [
                    flat[a : a + num_tiles]
                    for a in range(0, len(flat), num_tiles)
                ]
            except _DEGRADABLE:
                pass
        rows: list[list[bytes]] = []
        for a, j in enumerate(level_ids):
            try:
                rows.append([
                    _decode(job)
                    for job in jobs[a * num_tiles : (a + 1) * num_tiles]
                ])
            except _DEGRADABLE as exc:
                failures.append(LevelFailure(j, "decode", repr(exc)))
                break
        return rows

    def _reconstruct(
        self, run: _RestoreRun, payload_rows: list[list[bytes]],
        parallelism: str | None, processes: int | None,
    ) -> tuple[np.ndarray | None, int]:
        """Per-tile prefix reconstruction; returns ``(data, levels_used)``.

        ``payload_rows[j][t]`` is tile ``t``'s payload of level ``j``.  A
        degradable failure at prefix length ``u`` retries every tile at
        ``u - 1`` — all tiles must agree on the prefix for the delivered
        error bound to mean anything.
        """
        rec = run.rec
        with run.timed("reconstruct"):
            nbytes = int(
                np.prod(rec.shape, dtype=np.int64) * np.dtype(rec.dtype).itemsize
            )
            if procpipe.resolve_mode(parallelism, nbytes) != "process":
                processes = 1
            tiles, plans, _ = rec.tile_table()
            processes = self._tile_processes(processes)
            config = procpipe.refactorer_config(self.refactorer)
            upto = len(payload_rows)
            while upto >= 1:
                jobs = [
                    (lo, hi, plans[t], [row[t] for row in payload_rows[:upto]])
                    for t, (lo, hi) in enumerate(tiles)
                ]
                try:
                    return procpipe.reconstruct_tiles(
                        rec.shape, rec.dtype, jobs, rec.data_max,
                        rec.correction, config, processes,
                    ), upto
                except _DEGRADABLE as exc:
                    run.failures.append(
                        LevelFailure(upto - 1, "pipeline", repr(exc))
                    )
                    upto -= 1
            return None, 0

    def _select(
        self, strategy, sizes, ms, failed,
        *, max_levels: int | None = None,
    ) -> GatheringOutcome:
        """Plan a gather with fixed work: ``random`` draws from seed 0,
        and no strategy charges solver time."""
        if strategy == "adaptive":
            # the catalog's observed EWMA where there is one
            return adaptive_strategy(
                BandwidthTracker(self.catalog, self.cluster.bandwidths),
                sizes, ms, failed, max_levels=max_levels,
            )
        bw = self.cluster.bandwidths
        if strategy == "random":
            return random_strategy(
                sizes, ms, bw, failed, seed=0, max_levels=max_levels
            )
        if strategy == "naive":
            return naive_strategy(sizes, ms, bw, failed, max_levels=max_levels)
        if strategy == "optimized":
            return exact_strategy(sizes, ms, bw, failed, max_levels=max_levels)
        raise ValueError(f"unknown gathering strategy: {strategy!r}")

    def _gather_level(self, j: int, run: _RestoreRun) -> dict[int, np.ndarray]:
        """Fetch one level's selected fragments, verifying integrity.

        Column ``j`` of the plan is level ``j`` (the planned levels are
        a prefix).  The plan selects systems assuming the default
        placement (fragment i on system i), so selecting system i for
        level j means fetching fragment i of j — one verified read against the
        record's CRC, on the system the record places it on (which a
        repair may have moved), under the pipeline retry policy:
        *transient* injected faults heal in place.  A fragment that
        still cannot be fetched cleanly — checksum mismatch (bit rot,
        torn write; tallied into ``run.crc_erasures``), injected read error,
        system that dropped out after selection — is treated as an
        *erasure*: it is dropped and replaced by a fragment from a spare
        available system, which the EC math tolerates exactly like an
        outage.  Raises when fewer than ``k`` clean fragments remain.
        """
        # Fragments live under the level's *storage name*: the object
        # name for generation 0, or the migration-bumped generation the
        # object record points at (the atomic-flip indirection of the
        # control plane's live re-encoding).
        rec = run.rec
        sname = rec.level_storage_name(j)
        frags: dict[int, np.ndarray] = {}

        def take(i: int) -> bool:
            home = rec.placements[j][i]
            out = self.retry_policy.call(
                lambda: self.cluster.fetch(
                    sname, j, i, home=home, crc=rec.checksums[j][i]
                ).payload,
                retry_on=FRAGMENT_ERRORS,
            )
            if self.fetch_observer is not None:
                self.fetch_observer(home, out)
            if out.ok:
                frags[i] = np.frombuffer(out.value, dtype=np.uint8)
            elif isinstance(out.error, CorruptFragmentError):
                run.crc_erasures.append(i)
            return out.ok

        selected = [int(i) for i in np.nonzero(run.outcome.x[:, j])[0]]
        lost = [i for i in selected if not take(i)]
        needed = self.cluster.n - rec.ft_config[j]
        if lost:
            spares = set(self.cluster.locate(sname, j)) - set(selected)
            for idx in sorted(spares):
                if len(frags) >= needed:
                    break
                take(idx)
        if len(frags) < needed:
            raise RuntimeError(
                f"level {j} of {rec.name!r}: {len(lost)} fragment(s) lost, "
                f"{len(frags)}/{needed} clean after spares — cannot decode"
            )
        return frags

"""Tile transport and the two tile-map executors of the RAPIDS pipeline.

``RAPIDS.prepare`` / ``RAPIDS.restore`` run one stage sequence for every
object — a list of one or more axis-0 tiles.  The sole tile of a
one-tile object is handled in the parent and never comes near this
module; for multi-tile objects this module moves tiles 1.. through the
stages that are worth running off the parent's GIL:

prepare (:func:`refactor_tiles`)::

    tile read -> [pool] multilevel transform/quantise + bitplane encode
              -> caller's ``consume`` (per-level EC encode -> spool)

restore (:func:`reconstruct_tiles`)::

    caller's per-(level, tile) payloads
              -> [pool] prefix reconstruct -> shared output array

Both run the same schedule inline when ``processes <= 1`` — same bytes,
no pools — which is also what the pipeline asks for under a chaos
injector, so fault-plan occurrence windows see one deterministic
operation order and the injector is never consulted from workers.

Three properties the transport maintains:

* **No pickling of bulk data on the hot path.**  Tile inputs, encoded
  component payloads, and reconstructed tile outputs travel through
  ``multiprocessing.shared_memory`` segments managed by a small
  ref-counted :class:`SharedArena` (parent-owned: the parent creates and
  unlinks every segment; workers only attach).  Workers write
  reconstructed tiles into one object-sized output segment, and the
  restored array *is* that segment, not a copy of it: it is mapped a
  second time before its name is unlinked (:func:`_keep_mapped`), so
  no ``/dev/shm`` name outlives the call and the pages live as long as
  the result does.
  Only scalar metadata (sizes, bounds, level plans) crosses the pool as
  pickles, with a rare fallback when a tile's payloads exceed their
  pre-sized segment.
* **Bounded peak RSS.**  A sliding window of at most
  ``max(2, 2 * processes)`` tiles is outstanding at any moment
  (:func:`_windowed`) — the bounded inter-stage queue that provides
  backpressure — so a prepare's peak memory is O(window x tile), not
  O(dataset).  Inputs can stream from a ``.npy`` file via
  :class:`TileSource` (seek + ``readinto``, no mmap of the whole
  object), and encoded fragments spool to disk per (level, fragment)
  with a running CRC (:class:`_FragmentSpool`) so the commit stage
  reads back one fragment at a time.  A restore's output is one
  object, held once: in shared memory, so ``/dev/shm`` must fit one
  object-sized segment for as long as a multi-tile result is alive.
* **Bit-identical output.**  Tiling is deterministic
  (:func:`axis0_bounds`) and the refactor kernels
  are worker-count invariant — so ``processes=N``, ``processes=1`` and
  the inline path produce the same bytes.
"""

from __future__ import annotations

import mmap
import os
import shutil
import tempfile
import zlib
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np

from ..formats import crc32
from ..refactor import Refactorer
from ..refactor.grid import LevelPlan
from ..refactor.refactorer import RefactoredObject, reconstruct_block, refactor_block

try:  # how ``multiprocessing.shared_memory`` opens POSIX segments
    import _posixshmem
except ImportError:  # Windows: no POSIX segments to map a second time
    _posixshmem = None

__all__ = [
    "AUTO_PROCESS_THRESHOLD",
    "DEFAULT_TILE_BYTES",
    "SharedArena",
    "TileSource",
    "axis0_bounds",
    "payload_capacity",
    "plans_as_lists",
    "reconstruct_tiles",
    "refactor_tiles",
    "refactorer_config",
    "resolve_mode",
    "resolve_tiles",
]

#: Objects at least this large default to process parallelism when the
#: caller passes ``parallelism=None``.  The size is a proxy, not a
#: measured crossover: on a 2-vCPU host, a 64 MiB float64 object with
#: bounds-only errors took as long on two pool processes as on a
#: two-thread one-tile pipeline (prepare 876 vs 879 ms, restore 502 vs
#: 534 ms, medians of 6 alternating rounds).
AUTO_PROCESS_THRESHOLD = 32 * 2**20

#: Target tile size when ``tile_planes`` is not given.  On the same host
#: and object, 8 MiB tiles refactored inline on one thread took 1101 ms
#: against 1480 ms for the whole object as one tile (restore 717 vs
#: 922 ms); why was not measured.
DEFAULT_TILE_BYTES = 8 * 2**20


def payload_capacity(tile_nbytes: int) -> int:
    """Shared-memory capacity pre-leased for one tile's component payloads.

    Encoded components of incompressible data can exceed the raw tile
    size (raw-storage plane markers, frame headers, sign planes), so the
    segment carries a 25% + 64 KiB margin.  A tile that still overflows
    falls back to pickled payload transport — correct, just slower.
    """
    return tile_nbytes + tile_nbytes // 4 + (1 << 16)


def resolve_mode(parallelism: str | None, nbytes: int) -> str:
    """Resolve a ``parallelism`` knob to ``"process"`` or ``"thread"``."""
    if parallelism in ("process", "thread"):
        return parallelism
    if parallelism not in (None, "auto"):
        raise ValueError(
            f"parallelism must be one of 'process', 'thread', "
            f"'auto' or None, got {parallelism!r}"
        )
    return "process" if nbytes >= AUTO_PROCESS_THRESHOLD else "thread"


# -- shared-memory arena -------------------------------------------------


class SharedArena:
    """Parent-owned pool of shared-memory segments.

    The parent process is the single owner: it creates (leases) every
    segment and unlinks it on :meth:`release`.  Workers only ever attach
    by name, so a worker crash can never leak a segment — :meth:`close`
    (run by the context manager even on error paths) unlinks everything
    still live.  ``created``/``peak_bytes`` feed the
    leak assertions in the tests and the RSS accounting in the bench.
    """

    def __init__(self) -> None:
        self._live: dict[str, shared_memory.SharedMemory] = {}
        self.created = 0
        self.active_bytes = 0
        self.peak_bytes = 0

    def lease(self, nbytes: int) -> shared_memory.SharedMemory:
        """Create a segment and return it."""
        shm = shared_memory.SharedMemory(create=True, size=max(1, int(nbytes)))
        self._live[shm.name] = shm
        self.created += 1
        self.active_bytes += shm.size
        self.peak_bytes = max(self.peak_bytes, self.active_bytes)
        return shm

    def get(self, name: str) -> shared_memory.SharedMemory:
        return self._live[name]

    def release(self, name: str) -> None:
        """Unlink the segment (a no-op when it is already gone)."""
        shm = self._live.pop(name, None)
        if shm is None:
            return
        self.active_bytes -= shm.size
        try:
            shm.close()
            shm.unlink()
        except FileNotFoundError:
            pass  # already gone (e.g. external cleanup); nothing leaks

    @property
    def live_names(self) -> list[str]:
        return sorted(self._live)

    def close(self) -> None:
        """Unlink every remaining segment (crash-safe teardown)."""
        for name in list(self._live):
            self.release(name)

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _attach(name: str) -> shared_memory.SharedMemory:
    """Worker-side attach that leaves ownership with the parent.

    On POSIX Pythons before 3.13, attaching registers the segment with
    the resource tracker exactly like creating it does.  Pool workers
    inherit the *parent's* tracker process (both fork and spawn pass the
    tracker fd down), so that duplicate registration is a set no-op —
    but an ``unregister`` here would strip the parent's own registration
    and make the parent's later ``unlink`` race the tracker.  Attach
    plainly and leave the bookkeeping to the parent's
    :class:`SharedArena`, the sole owner.
    """
    return shared_memory.SharedMemory(name=name)


def _keep_mapped(
    shm: shared_memory.SharedMemory, dtype: np.dtype, shape: tuple
) -> np.ndarray:
    """An array over segment ``shm`` that outlives the segment's name.

    Opens the segment a second time and maps it without registering it
    anywhere, so the arena can still unlink the name (no ``/dev/shm``
    entry outlives the call) while the pages stay mapped until the last
    view of the returned array is dropped.  Without POSIX segments the
    contents are copied out instead.
    """
    count = int(np.prod(shape, dtype=np.int64))
    if _posixshmem is None:
        return np.frombuffer(shm.buf, dtype, count).reshape(shape).copy()
    fd = _posixshmem.shm_open("/" + shm.name, os.O_RDWR)
    try:
        mapped = mmap.mmap(fd, count * dtype.itemsize)
    finally:
        os.close(fd)
    return np.frombuffer(mapped, dtype, count).reshape(shape)


# -- tile IO -------------------------------------------------------------


class TileSource:
    """Axis-0 tile reader over an in-memory array or an ``.npy`` file.

    File sources are read with seek + ``readinto`` straight into the
    caller's buffer (typically a shared-memory segment), never mapping
    the whole object — the parent's resident set stays O(tile) even for
    datasets that don't fit in memory.
    """

    def __init__(self, source: np.ndarray | str | Path) -> None:
        self._fh = None
        self._data = None
        try:
            if isinstance(source, (str, Path)):
                # rapidslint: disable-next=RPD108 -- handle lives for the source's lifetime; closed in TileSource.close/__exit__
                self._fh = open(source, "rb")
                version = np.lib.format.read_magic(self._fh)
                if version == (1, 0):
                    header = np.lib.format.read_array_header_1_0(self._fh)
                elif version == (2, 0):
                    header = np.lib.format.read_array_header_2_0(self._fh)
                else:
                    raise ValueError(f"unsupported .npy version {version}")
                shape, fortran, dtype = header
                if fortran:
                    raise ValueError(
                        "Fortran-ordered .npy input is not supported; "
                        "save with C order"
                    )
                self.shape = tuple(int(s) for s in shape)
                self.dtype = np.dtype(dtype)
                self._offset = self._fh.tell()
            else:
                self._data = np.ascontiguousarray(source)
                self.shape = tuple(self._data.shape)
                self.dtype = self._data.dtype
            if len(self.shape) < 1 or self.shape[0] < 2:
                raise ValueError("need at least 2 planes along axis 0")
            self.row_nbytes = (
                int(np.prod(self.shape[1:], dtype=np.int64))
                * self.dtype.itemsize
            )
        except BaseException:
            # A rejected source (bad magic, Fortran order, too few
            # planes) discards the half-built instance — nothing would
            # ever close the handle.
            self.close()
            raise

    @property
    def nbytes(self) -> int:
        return self.row_nbytes * self.shape[0]

    def tile_shape(self, lo: int, hi: int) -> tuple[int, ...]:
        return (hi - lo,) + self.shape[1:]

    def read_tile(self, lo: int, hi: int, out=None) -> np.ndarray:
        """Read planes ``[lo, hi)`` into ``out`` (or a fresh array).

        ``out`` may be any writable buffer of at least the tile's size
        (a shared-memory view); the returned array is a view of it.
        """
        shape = self.tile_shape(lo, hi)
        count = int(np.prod(shape, dtype=np.int64))
        if out is None:
            arr = np.empty(shape, dtype=self.dtype)
        else:
            arr = np.frombuffer(out, dtype=self.dtype, count=count).reshape(
                shape
            )
        if self._data is not None:
            np.copyto(arr, self._data[lo:hi])
            return arr
        nbytes = (hi - lo) * self.row_nbytes
        self._fh.seek(self._offset + lo * self.row_nbytes)
        view = arr.reshape(-1).view(np.uint8)[:nbytes]
        got = self._fh.readinto(memoryview(view))
        if got != nbytes:
            raise OSError(
                f"short read: wanted {nbytes} bytes for planes "
                f"[{lo}, {hi}), got {got}"
            )
        return arr

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TileSource":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def axis0_bounds(extent: int, num_tiles: int) -> list[tuple[int, int]]:
    """Near-equal contiguous ``(lo, hi)`` spans covering ``range(extent)``.

    The one cut-point function: every tile keeps >= 2 planes (the
    refactorer's minimum) and the cuts are ``linspace`` floors.
    """
    if extent < 1:
        raise ValueError("extent must be >= 1")
    if num_tiles < 1:
        raise ValueError("num_tiles must be >= 1")
    num_tiles = min(num_tiles, max(1, extent // 2))
    cuts = np.linspace(0, extent, num_tiles + 1).astype(int)
    return [(int(cuts[i]), int(cuts[i + 1])) for i in range(num_tiles)]


def resolve_tiles(
    shape: tuple[int, ...],
    itemsize: int,
    tile_planes: int | None = None,
) -> list[tuple[int, int]]:
    """Tile bounds for one object (deterministic across modes)."""
    if tile_planes is None:
        row = int(np.prod(shape[1:], dtype=np.int64)) * itemsize
        tile_planes = max(2, DEFAULT_TILE_BYTES // max(1, row))
    if tile_planes < 2:
        raise ValueError("tile_planes must be >= 2")
    num_tiles = -(-shape[0] // tile_planes)
    return axis0_bounds(shape[0], num_tiles)


# -- picklable stage workers ---------------------------------------------


def refactorer_config(refactorer: Refactorer) -> dict:
    """Constructor kwargs reproducing ``refactorer`` in a worker.

    ``workers`` only affects scheduling, never bytes (the kernels are
    worker-count invariant), so the executors below override it to 1
    for pool workers while the inline path keeps the caller's fan-out.
    """
    return dict(
        num_components=refactorer.num_components,
        max_levels=refactorer.max_levels,
        num_planes=refactorer.num_planes,
        correction=refactorer.correction,
        policy=refactorer.policy,
        size_ratio=refactorer.size_ratio,
        workers=refactorer.workers,
    )


def plans_as_lists(plans) -> list[list[list[int]]]:
    """Level plans in the JSON shape object records store them in."""
    return [
        [list(p.fine_shape), list(p.coarse_shape), list(p.coarsened_axes)]
        for p in plans
    ]


def _refactor_tile(tile: np.ndarray, config: dict) -> dict:
    """Refactor one tile; the keyword arguments of a ``consume`` call."""
    obj = refactor_block(tile, config, measure_errors=False)
    return {
        "payloads": list(obj.payloads),
        "errors": [float(b) for b in obj.bounds],
        "tile_max": float(obj.data_max),
        "plans": plans_as_lists(obj.plans),
    }


def _reconstruct_tile(
    payloads, tile_shape, dtype_str, plans_rows, data_max, correction, config
) -> np.ndarray:
    """Reconstruct one tile from its component payload prefix."""
    obj = RefactoredObject(
        shape=tuple(tile_shape),
        dtype=dtype_str,
        plans=[LevelPlan(tuple(f), tuple(c), tuple(a)) for f, c, a in plans_rows],
        payloads=payloads,
        errors=[],
        bounds=[],
        data_max=data_max,
        correction=correction,
    )
    return reconstruct_block(obj, config)


def _pack(buf, payloads) -> None:
    """Lay ``payloads`` end to end at the start of a segment buffer."""
    off = 0
    for payload in payloads:
        buf[off : off + len(payload)] = payload
        off += len(payload)


def _unpack(buf, sizes) -> list[bytes]:
    """Inverse of :func:`_pack`: copy the payloads back out."""
    payloads, off = [], 0
    for sz in sizes:
        payloads.append(bytes(buf[off : off + sz]))
        off += sz
    return payloads


def _prepare_tile_worker(args: tuple) -> dict:
    """Refactor one tile from shared memory; payloads go back via shm.

    Module-level (picklable under any pool start method).  Returns only
    scalar metadata (``payloads`` is ``None``, their ``sizes`` say where
    they sit in the output segment) unless the pre-sized segment is too
    small, when the payload bytes themselves are pickled as a fallback.
    """
    in_name, tile_shape, dtype_str, out_name, config = args
    in_shm = _attach(in_name)
    tile = None
    try:
        count = int(np.prod(tile_shape, dtype=np.int64))
        tile = np.frombuffer(in_shm.buf, dtype=dtype_str, count=count).reshape(
            tile_shape
        )
        result = _refactor_tile(tile, config)
    finally:
        tile = None  # drop the buffer view before closing the segment
        in_shm.close()
    result["sizes"] = [len(p) for p in result["payloads"]]
    out_shm = _attach(out_name)
    try:
        if sum(result["sizes"]) <= out_shm.size:
            _pack(out_shm.buf, result["payloads"])
            result["payloads"] = None
    finally:
        out_shm.close()
    return result


def _restore_tile_worker(args: tuple) -> None:
    """Reconstruct one tile from shm payloads into the shared output."""
    in_name, sizes, out_name, out_offset, *tile_args = args
    in_shm = _attach(in_name)
    try:
        payloads = _unpack(in_shm.buf, sizes)
    finally:
        in_shm.close()
    out = _reconstruct_tile(payloads, *tile_args)
    out_shm = _attach(out_name)
    flat = None
    try:
        flat = np.ascontiguousarray(out).reshape(-1).view(np.uint8)
        out_shm.buf[out_offset : out_offset + flat.nbytes] = flat
    finally:
        flat = None
        out_shm.close()


# -- fragment spool ------------------------------------------------------


class _FragmentSpool:
    """Disk spool for fragment chunks: one file per (level, fragment).

    The fragment sink of a multi-tile prepare: tile ``t``'s chunk of
    fragment ``i`` is appended to that fragment's file as soon as it is
    encoded.  ``append`` keeps a running CRC-32 per fragment;
    ``read_fragment`` returns one ``(fragment, crc)`` at a time
    (O(fragment) memory) after checking the bytes read back against it.
    """

    def __init__(self, levels: int, n: int) -> None:
        self.dir = Path(tempfile.mkdtemp(prefix="procpipe-prepare-"))
        self._files: list[list] = []
        try:
            for j in range(levels):
                self._files.append([])
                for i in range(n):
                    self._files[j].append(
                        # rapidslint: disable-next=RPD108 -- appended to across the whole run; closed in finish_writes/close
                        open(self.dir / f"l{j}.f{i:03d}.chunk", "wb")
                    )
        except BaseException:
            # A failed open (out of descriptors, disk full) discards the
            # half-built spool: nothing else would close what did open.
            self.close()
            raise
        self.crcs = [[0] * n for _ in range(levels)]
        self.spooled_bytes = 0

    def append(self, level: int, fragments) -> None:
        for i, frag in enumerate(fragments):
            blob = np.ascontiguousarray(frag).tobytes()
            self.crcs[level][i] = zlib.crc32(blob, self.crcs[level][i])
            self._files[level][i].write(blob)
            self.spooled_bytes += len(blob)

    def read_fragment(self, level: int, index: int) -> tuple[bytes, int]:
        blob = (self.dir / f"l{level}.f{index:03d}.chunk").read_bytes()
        expected = self.crcs[level][index] & 0xFFFFFFFF
        if crc32(blob) != expected:
            raise OSError(
                f"fragment spool corrupted on disk: level {level} "
                f"fragment {index} fails its running CRC"
            )
        return blob, expected

    def finish_writes(self) -> None:
        """Flush and close every chunk file; must precede the read-back."""
        for row in self._files:
            for fh in row:
                fh.close()

    def close(self) -> None:
        self.finish_writes()
        shutil.rmtree(self.dir, ignore_errors=True)

    def __enter__(self) -> "_FragmentSpool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()




# -- tile-map executors --------------------------------------------------


def _windowed(count: int, processes: int, submit, collect):
    """Run ``count`` pool jobs through a sliding window; yield in order.

    ``submit(t)`` starts job ``t`` and returns what ``collect`` needs to
    finish it (the future plus the segments leased for it);
    ``collect(*job)`` waits for the result and releases those segments.
    At most ``max(2, 2 * processes)`` jobs (and their arena segments)
    are ever outstanding, and the window is refilled *before* a result
    is yielded, so the pool stays busy while the caller works on it.
    """
    window = min(max(2, 2 * processes), count)
    pending = deque(submit(t) for t in range(window))
    for t in range(window, window + count):
        item = collect(*pending.popleft())
        if t < count:
            pending.append(submit(t))
        yield item


def refactor_tiles(
    src: TileSource,
    bounds: list[tuple[int, int]],
    config: dict,
    processes: int,
    arena: SharedArena,
    consume,
) -> None:
    """Refactor the tiles ``bounds`` of ``src``, feeding ``consume`` in order.

    ``consume(payloads=, errors=, tile_max=, plans=)`` receives each
    tile's component payloads, closed-form error bounds, max|d| and level
    plans.  ``processes <= 1`` refactors in the caller with ``config`` as
    given; otherwise tiles travel to single-threaded pool workers through
    ``arena`` and the caller only pays for ``consume``.
    """
    if processes <= 1:
        for lo, hi in bounds:
            consume(**_refactor_tile(src.read_tile(lo, hi), config))
        return
    worker_config = {**config, "workers": 1}
    with ProcessPoolExecutor(max_workers=processes) as pool:

        def submit(t: int) -> tuple:
            lo, hi = bounds[t]
            nbytes = (hi - lo) * src.row_nbytes
            in_shm = arena.lease(nbytes)
            src.read_tile(lo, hi, out=in_shm.buf)
            out_shm = arena.lease(payload_capacity(nbytes))
            fut = pool.submit(
                _prepare_tile_worker,
                (
                    in_shm.name,
                    src.tile_shape(lo, hi),
                    str(src.dtype),
                    out_shm.name,
                    worker_config,
                ),
            )
            return fut, in_shm.name, out_shm.name

        def collect(fut, in_name: str, out_name: str) -> dict:
            try:
                res = fut.result()
            finally:
                arena.release(in_name)
            sizes = res.pop("sizes")
            if res["payloads"] is None:  # the usual case: bytes are in shm
                res["payloads"] = _unpack(arena.get(out_name).buf, sizes)
            arena.release(out_name)
            return res

        for res in _windowed(len(bounds), processes, submit, collect):
            consume(**res)


def reconstruct_tiles(
    shape,
    dtype_str: str,
    jobs: list[tuple[int, int, list, list[bytes]]],
    data_max: float,
    correction: bool,
    config: dict,
    processes: int,
) -> np.ndarray:
    """Reconstruct an object from per-tile component payload prefixes.

    ``jobs[t] = (lo, hi, plans, payloads)`` describes tile ``t``'s plane
    bounds, level plans and payload prefix.  A one-tile object *is* its
    tile, handed back without an object-sized copy; more tiles fill one
    output array, in the caller when ``processes <= 1`` and through a
    shared segment filled by pool workers otherwise.  The pooled result
    is an ordinary writable array over that segment, not a copy of it:
    the segment's name is gone when this returns, but its object-sized
    pages stay in ``/dev/shm`` until the last view of the result is
    dropped.
    """
    shape = tuple(shape)
    dtype = np.dtype(dtype_str)

    def tile_args(lo: int, hi: int, plans_rows) -> tuple:
        return ((hi - lo,) + shape[1:], dtype_str, plans_rows,
                data_max, correction)

    if len(jobs) == 1:
        lo, hi, plans_rows, payloads = jobs[0]
        return _reconstruct_tile(payloads, *tile_args(lo, hi, plans_rows), config)
    if processes <= 1:
        out = np.empty(shape, dtype=dtype)
        for lo, hi, plans_rows, payloads in jobs:
            out[lo:hi] = _reconstruct_tile(
                payloads, *tile_args(lo, hi, plans_rows), config
            )
        return out
    row_nbytes = int(np.prod(shape[1:], dtype=np.int64)) * dtype.itemsize
    worker_config = {**config, "workers": 1}
    with SharedArena() as arena:
        out_shm = arena.lease(row_nbytes * shape[0])
        with ProcessPoolExecutor(max_workers=processes) as pool:

            def submit(t: int) -> tuple:
                lo, hi, plans_rows, payloads = jobs[t]
                sizes = [len(p) for p in payloads]
                in_shm = arena.lease(sum(sizes))
                _pack(in_shm.buf, payloads)
                fut = pool.submit(
                    _restore_tile_worker,
                    (in_shm.name, sizes, out_shm.name, lo * row_nbytes)
                    + tile_args(lo, hi, plans_rows)
                    + (worker_config,),
                )
                return fut, in_shm.name

            def collect(fut, in_name: str) -> None:
                try:
                    fut.result()
                finally:
                    arena.release(in_name)

            for _ in _windowed(len(jobs), processes, submit, collect):
                pass
        return _keep_mapped(out_shm, dtype, shape)

"""Benchmark-side tracing: timing wrappers around the layers' public functions.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
replaces the public methods listed in :func:`_targets` with wrappers
that record one span per call; :meth:`Tracer.remove` puts the originals
back.  Spans stay in memory as lists ``[name, start, end, thread,
parent, op, bytes]`` and are written out once, after the measured loop.

A span's parent is the enclosing span on its own thread.  A span opened
with nothing enclosing it on a pool thread the library started (a
``ThreadPoolExecutor`` worker) hangs off the most recently opened root
span still in flight — exact with one client, approximate in
``service_small`` where two requests run at once.  ``op`` is the root of
the span's parent chain.
"""

from __future__ import annotations

import functools
import json
import threading
import time

__all__ = ["Tracer", "union_length", "self_times", "aggregate"]

NAME, START, END, THREAD, PARENT, OP, BYTES = range(7)


class Tracer:
    """In-memory span recorder plus the install/remove of the wrappers."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        #: ``(span id, key, value)`` facts a wrapper read off a result
        #: (report fields, attempt counts); summed per key at the end.
        self.notes: list[tuple[int, str, float]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open_roots: list[int] = []
        #: Wrappers record only while this is set: the runner sets it
        #: around timed operations, so its own untimed steps (inflicting
        #: damage, verifying outputs) leave no spans.
        self.enabled = False
        self._patched: list[tuple[type, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            idx = len(self.spans)
            if stack:
                parent = stack[-1]
            elif self._open_roots and _on_pool_thread():
                parent = self._open_roots[-1]
            else:
                parent = -1
                self._open_roots.append(idx)
            op = self.spans[parent][OP] if parent >= 0 else idx
            self.spans.append(
                [name, self.clock(), None, threading.get_ident(), parent, op, 0]
            )
        stack.append(idx)
        return idx

    def end(self, idx: int, nbytes: int = 0) -> None:
        span = self.spans[idx]
        span[END] = self.clock()
        span[BYTES] = int(nbytes)
        self._local.stack.pop()
        if span[PARENT] < 0:
            with self._lock:
                self._open_roots.remove(idx)

    def note(self, idx: int, key: str, value: float) -> None:
        self.notes.append((idx, key, float(value)))

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name: str, measure):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.end(idx)
                raise
            nbytes = 0
            if measure is not None:
                nbytes = measure(self, idx, args, kwargs, out) or 0
            self.end(idx, nbytes)
            return out

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, measure in _targets():
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, measure))

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- output --------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for idx, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": s[NAME], "start": s[START],
                    "end": s[END], "thread": s[THREAD], "parent": s[PARENT],
                    "op": s[OP], "bytes": s[BYTES],
                }))
                fh.write("\n")


def _on_pool_thread() -> bool:
    # The stdlib's default name for executor workers; the library never
    # passes a thread_name_prefix of its own.
    return threading.current_thread().name.startswith("ThreadPoolExecutor")


# -- what gets wrapped ---------------------------------------------------------
#
# Each ``measure(tracer, idx, args, kwargs, out)`` returns the span's byte
# count and may leave notes; ``args[0]`` is ``self`` of the wrapped method.

def _nbytes(x) -> int:
    return int(x.nbytes) if hasattr(x, "nbytes") else len(x)


def _m_refactor(tr, idx, args, kwargs, out):
    tr.note(idx, "refactor.bytes_out", sum(out.sizes))
    return args[1].nbytes


def _m_out_nbytes(tr, idx, args, kwargs, out):
    return out.nbytes


def _m_encode(tr, idx, args, kwargs, out):
    return _nbytes(args[1])


def _m_decode(tr, idx, args, kwargs, out):
    fragments, config = kwargs.get("fragments"), kwargs.get("config")
    if fragments is not None and config is not None:
        # Any parity index among the inputs means the systematic fast
        # path is off and the decoder has to invert a matrix.
        if any(i >= config.k for i in fragments):
            tr.note(idx, "ec.decode_with_erasures", 1)
    return len(out)


def _m_put_fragment(tr, idx, args, kwargs, out):
    return args[1].nbytes


def _m_get_fragment(tr, idx, args, kwargs, out):
    return out.nbytes


def _m_kv_put(tr, idx, args, kwargs, out):
    return len(args[1]) + len(args[2])


def _m_kv_get(tr, idx, args, kwargs, out):
    return len(out) if out is not None else 0


def _m_retry(tr, idx, args, kwargs, out):
    tr.note(idx, "chaos.retry_attempts", out.attempts)


def _m_scrub(tr, idx, args, kwargs, out):
    tr.note(idx, "healing.fragments_verified", out.verified)
    return int(out.read_bytes)


def _m_repair(tr, idx, args, kwargs, out):
    tr.note(idx, "healing.fragments_repaired", out.repaired)
    tr.note(idx, "healing.source_reads", out.read_attempts)
    return int(out.written_bytes)


def _m_prepare(tr, idx, args, kwargs, out):
    for key, value in out.timings.items():
        tr.note(idx, f"pipeline.{key}_s", value)
    tr.note(idx, "pipeline.staged_s", sum(out.timings.values()))
    tr.note(idx, "transfer.distribution_latency_s", out.distribution_latency)
    tr.note(idx, "transfer.network_bytes", out.network_bytes)
    pp = out.extra.get("procpipe")
    if pp is not None:
        for key in ("num_tiles", "arena_peak_bytes", "spooled_bytes"):
            tr.note(idx, f"procpipe.{key}", pp[key])
        tr.note(idx, "procpipe.arena_leaked", len(pp["arena_leaked"]))


def _m_restore(tr, idx, args, kwargs, out):
    for key, value in out.timings.items():
        tr.note(idx, f"pipeline.{key}_s", value)
    tr.note(idx, "pipeline.staged_s", sum(out.timings.values()))
    return out.data.nbytes if out.data is not None else 0


def _targets():
    """``(class, attribute, span name, measure)`` for every wrapped method."""
    from repro.chaos.retry import RetryPolicy
    from repro.core.pipeline import RAPIDS
    from repro.ec.codec import ErasureCodec
    from repro.healing.ledger import DurabilityLedger
    from repro.healing.repair import RepairEngine
    from repro.healing.scrubber import Scrubber
    from repro.metadata.kvstore import KVStore
    from repro.refactor.refactorer import Refactorer
    from repro.service.frontend import ArchiveService
    from repro.service.journal import RequestJournal
    from repro.storage.filestore import FileStorageCluster, FileStorageSystem

    return [
        (RAPIDS, "prepare", "pipeline.prepare", _m_prepare),
        (RAPIDS, "restore", "pipeline.restore", _m_restore),
        (Refactorer, "refactor", "refactor.refactor", _m_refactor),
        (Refactorer, "refactor_stream", "refactor.refactor", _m_refactor),
        (Refactorer, "reconstruct", "refactor.reconstruct", _m_out_nbytes),
        (ErasureCodec, "encode_level", "ec.encode", _m_encode),
        (ErasureCodec, "decode_level", "ec.decode", _m_decode),
        (ErasureCodec, "repair_fragment", "ec.repair", _m_out_nbytes),
        # The system-level methods, not FileStorageCluster.place_level /
        # fetch: the process engine, the scrubber and the repair engine
        # call the systems directly, and the cluster methods end up here.
        (FileStorageSystem, "put", "storage.place", _m_put_fragment),
        (FileStorageSystem, "get", "storage.fetch", _m_get_fragment),
        # An inventory query that reads every fragment file of every
        # system; the repair engine issues one per fragment it re-places.
        (FileStorageCluster, "locate", "storage.locate", None),
        (KVStore, "put", "metadata.put", _m_kv_put),
        (KVStore, "get", "metadata.get", _m_kv_get),
        (KVStore, "scan", "metadata.scan", None),
        (DurabilityLedger, "record", "healing.ledger_record", None),
        (Scrubber, "run", "healing.scrub", _m_scrub),
        (RepairEngine, "repair", "healing.repair", _m_repair),
        (ArchiveService, "submit", "service.submit", None),
        (RequestJournal, "begin", "service.journal", None),
        (RequestJournal, "commit", "service.journal", None),
        (RetryPolicy, "call", "chaos.retry", _m_retry),
    ]


# -- span arithmetic -------------------------------------------------------------

def union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part its children cover.

    Children on other threads may overlap each other and stick out of
    the parent; they are clipped to the parent and their union taken.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for idx, s in enumerate(spans):
        lo, hi = s[START], s[END]
        covered = union_length(
            (max(a, lo), min(b, hi)) for a, b in children.get(idx, ())
        )
        out.append((hi - lo) - covered)
    return out


def aggregate(spans, notes) -> dict:
    """Per span name: calls, summed time, summed self time, summed bytes;
    plus the notes summed per key."""
    selfs = self_times(spans)
    names: dict[str, dict] = {}
    for idx, s in enumerate(spans):
        row = names.setdefault(
            s[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "bytes": 0}
        )
        row["calls"] += 1
        row["total_s"] += s[END] - s[START]
        row["self_s"] += selfs[idx]
        row["bytes"] += s[BYTES]
    sums: dict[str, float] = {}
    for _, key, value in notes:
        sums[key] = sums.get(key, 0.0) + value
    return {"spans": names, "notes": sums}

"""Threads-first parallel mapping for GIL-releasing NumPy kernels.

The erasure-coding kernels (and most large-array NumPy ufuncs) release
the GIL inside their inner loops, so a thread pool parallelises them
without the pickling and process-startup costs of
:class:`~concurrent.futures.ProcessPoolExecutor`.  This module is the
shared "threads-first" strategy used by the EC kernel layer, the
refactoring transform and the pipeline's per-level encode/decode
fan-out, and the one place a thread pool is built.

``thread_map`` runs inline (no pool at all) when a single worker is
requested or there is at most one item — the ``processes=1`` inline
path of :mod:`repro.parallel.procpipe`, applied to threads — so tiny
inputs and tests never pay pool overhead.  :func:`auto_workers` is the
one size rule that decides, for a caller that left its width unset,
whether a pool is worth starting at all.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Collection, Iterable, Sequence, TypeVar

from .sanitizer import SharedStateTracker, sanitizer_mode

__all__ = [
    "auto_workers", "balanced_spans", "default_workers", "ordered_map",
    "thread_map",
]

T = TypeVar("T")
R = TypeVar("R")


def default_workers() -> int:
    """Worker count used when callers pass ``workers=None``.

    Derived from the CPUs this process may actually *run on* — the
    scheduling affinity mask (which cgroup/container CPU limits shrink)
    — rather than ``os.cpu_count()``, which reports every core in the
    machine and over-subscribes pools inside containers.  This is the
    single source of truth for every pool in the project: the thread
    fan-outs here and the process pools of
    :mod:`repro.parallel.procpipe`.
    """
    try:
        affinity = len(os.sched_getaffinity(0))
        if affinity > 0:
            return affinity
    except (AttributeError, OSError):
        pass  # platforms without sched_getaffinity (macOS, Windows)
    process_cpus = getattr(os, "process_cpu_count", None)  # 3.13+
    if process_cpus is not None:
        return process_cpus() or 1
    return os.cpu_count() or 1


#: Array size below which a caller that left its width unset runs
#: inline.  Creating and joining short-lived pools costs more than two
#: threads win back until about a million coefficients (measured on 2
#: CPUs for the transform: inline is 1.3-2.9x faster up to 64 Ki
#: elements and still ahead at 880 Ki, the pool leads from 2 Mi; the
#: per-level EC encode and decode of a 1 Mi-element object run no
#: slower inline than on the pool).  Depends on the input size only.
_MIN_POOL_ELEMENTS = 1 << 20


def auto_workers(workers: int | None, elements: int) -> int:
    """``workers`` if given, else a fan-out chosen from the array size."""
    if workers is not None:
        return workers
    return 1 if elements < _MIN_POOL_ELEMENTS else default_workers()


def balanced_spans(n: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into at most ``parts`` contiguous near-equal
    ``(lo, hi)`` spans.

    The split depends only on ``(n, parts)``, so callers that tile
    row-independent kernels get a deterministic decomposition — the
    basis for the "threaded output is bit-identical to serial" guarantee
    in the refactor/transform layers.
    """
    parts = max(1, min(parts, n))
    step, rem = divmod(n, parts)
    spans: list[tuple[int, int]] = []
    lo = 0
    for i in range(parts):
        hi = lo + step + (1 if i < rem else 0)
        spans.append((lo, hi))
        lo = hi
    return spans


def thread_map(
    fn: Callable[[T], R],
    items: Iterable[T] | Sequence[T],
    *,
    workers: int | None = None,
    allow_shared_writes: Collection[str] = (),
) -> list[R]:
    """Map ``fn`` over ``items`` on a thread pool, preserving order.

    ``workers=None`` uses :func:`default_workers`; ``workers <= 1`` or a
    single item runs inline with no pool.  Exceptions propagate to the
    caller exactly as in the serial case.

    When the ``RAPIDS_THREAD_SANITIZER`` environment variable is set,
    pooled maps run under the runtime thread sanitizer
    (:mod:`repro.parallel.sanitizer`): the shared state reachable from
    ``fn`` is shadow-tracked and any unsynchronized write observed
    during the map raises
    :class:`~repro.parallel.sanitizer.ThreadSanitizerError`.
    ``allow_shared_writes`` names objects (by closure/global/``self``
    name) the caller certifies are written at provably disjoint
    locations — e.g. disjoint row spans of a preallocated output array —
    and therefore exempt from tracking.
    """
    items = list(items)
    if workers is None:
        workers = default_workers()
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    tracker = None
    mode = sanitizer_mode()
    if mode is not None:
        tracker = SharedStateTracker(fn, allow=allow_shared_writes, mode=mode)
        fn = tracker.wrap()
    with ThreadPoolExecutor(max_workers=min(workers, len(items))) as pool:
        results = list(pool.map(fn, items))
    if tracker is not None:
        tracker.verify()
    return results


@contextmanager
def ordered_map(workers: int) -> Iterator[Callable[..., Iterator]]:
    """A ``map`` for the duration of the block.

    ``workers <= 1`` gives the builtin: lazy and inline, no thread
    started.  Otherwise one ``workers``-wide pool stays open across
    calls, and its ``map`` submits every item up front (drawing a lazy
    iterable to the end while earlier items already run) and yields the
    results in order.
    """
    if workers <= 1:
        yield map
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield pool.map

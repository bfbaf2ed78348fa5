"""Process-parallel streaming prepare/restore bench (repro.parallel.procpipe).

Measures the tentpole claims of the process pipeline:

* **Bit identity** — before any timing, the process-pool run is checked
  byte-for-byte against the inline serial run: FT configuration, level
  sizes, every stored fragment payload and checksum, and the restored
  array.  A perf path that changes outputs is a bug, not a speedup.
* **End-to-end speedup, like for like** — ``RAPIDS.prepare`` of a
  >= 64 MiB float64 field cut into tiles on a process pool (>= 4
  workers) versus the same object as one tile with thread fan-out, both
  reporting bound-derived errors (``measure_errors=False``): the same
  work, so the ratio is what tiling plus the pool buy.  That ratio is
  the headline ``speedup`` and must stay above 1.  The ratio against the
  default one-tile prepare, which additionally *measures* per-prefix
  errors, is kept as ``speedup_vs_measured`` — it mostly reflects the
  dropped measurement, not the engine.
* **Bounded peak RSS** — prepare is run in subprocesses against an
  ``.npy`` source at two dataset sizes with identical tile settings;
  the parent's ``ru_maxrss`` must grow far slower than the dataset
  (peak memory is O(tiles in flight), not O(dataset)).
* **Pipelined archival** — the simulated EC-encode/WAN-placement overlap
  schedule must sit between its lower bound and the sequential schedule.

Usage::

    python benchmarks/bench_procpipe.py            # full acceptance run
    python benchmarks/bench_procpipe.py --smoke    # CI: reduced sizes,
                                                   # identity checks only

Results land in ``BENCH_procpipe.json`` via
:func:`harness.write_bench_artifact`.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core import RAPIDS
from repro.datasets import nyx_temperature
from repro.metadata import MetadataCatalog
from repro.refactor import Refactorer
from repro.storage import StorageCluster
from repro.transfer import paper_bandwidth_profile

NUM_PLANES = 22
N_SYSTEMS = 16


def build_rapids(td: Path, label: str) -> RAPIDS:
    cluster = StorageCluster(paper_bandwidth_profile(N_SYSTEMS))
    catalog = MetadataCatalog(td / f"meta-{label}")
    return RAPIDS(cluster, catalog, refactorer=Refactorer(4, num_planes=NUM_PLANES))


def stored_bytes(rapids: RAPIDS, name: str, levels: int):
    """Every stored fragment's (level, system, payload, checksum)."""
    out = []
    for j in range(levels):
        for i in range(rapids.cluster.n):
            frag = rapids.cluster[i].get(name, j, i)
            out.append((j, i, frag.payload, frag.checksum))
    return out


def verify_bit_identity(data: np.ndarray, td: Path, processes: int,
                        tile_planes: int | None) -> dict:
    """Prove the pooled run is byte-identical to the inline serial run."""
    reports, restored, frags = {}, {}, {}
    for label, procs in (("serial", 1), ("pooled", processes)):
        rapids = build_rapids(td, f"ident-{label}")
        rep = rapids.prepare(
            f"ident-{label}", data, parallelism="process", processes=procs,
            tile_planes=tile_planes,
        )
        reports[label] = rep
        frags[label] = [
            (j, i, chk, len(payload))
            for j, i, payload, chk in stored_bytes(
                rapids, f"ident-{label}", len(rep.ft_config)
            )
        ]
        res = rapids.restore(f"ident-{label}")
        restored[label] = res.data
        rapids.catalog.close()

    a, b = reports["serial"], reports["pooled"]
    if a.ft_config != b.ft_config:
        raise SystemExit(f"ft_config diverged: {a.ft_config} vs {b.ft_config}")
    if a.level_sizes != b.level_sizes:
        raise SystemExit("level sizes diverged between serial and pooled runs")
    if frags["serial"] != frags["pooled"]:
        raise SystemExit("fragment payload checksums diverged")
    if not np.array_equal(restored["serial"], restored["pooled"]):
        raise SystemExit("restored arrays diverged")
    return {
        "identical": True,
        "ft_config": list(a.ft_config),
        "num_fragments": len(frags["serial"]),
        "serial_tiles": a.extra["procpipe"]["num_tiles"],
    }


def time_prepare_modes(data: np.ndarray, td: Path, processes: int,
                       tile_planes: int | None) -> dict:
    """Wall-clock ``RAPIDS.prepare``: one tile on threads vs tiles on a pool."""
    out = {"nbytes": int(data.nbytes), "processes": processes}
    npy = td / "bench-input.npy"
    np.save(npy, data)

    # Default one-tile prepare: whole-object refactor + empirical
    # per-level error measurement.  The measure_errors=False variant does
    # the same work as a multi-tile prepare (bound-derived errors), so it
    # is the like-for-like baseline; the measured one shows what the
    # measurement itself costs.
    rapids = build_rapids(td, "thread")
    t0 = time.perf_counter()
    rapids.prepare("bench-thread", data, parallelism="thread")
    out["prepare_thread_s"] = time.perf_counter() - t0
    rapids.catalog.close()

    rapids = build_rapids(td, "thread-nm")
    t0 = time.perf_counter()
    rapids.prepare("bench-thread-nm", data, parallelism="thread",
                   measure_errors=False)
    out["prepare_thread_nomeasure_s"] = time.perf_counter() - t0
    rapids.catalog.close()

    rapids = build_rapids(td, "process")
    t0 = time.perf_counter()
    rep = rapids.prepare("bench-process", str(npy), parallelism="process",
                         processes=processes, tile_planes=tile_planes)
    out["prepare_process_s"] = time.perf_counter() - t0
    out["speedup"] = (
        out["prepare_thread_nomeasure_s"] / out["prepare_process_s"]
    )
    out["speedup_vs_measured"] = (
        out["prepare_thread_s"] / out["prepare_process_s"]
    )
    out["procpipe"] = rep.extra["procpipe"]
    out["archival"] = rep.extra["archival"]

    t0 = time.perf_counter()
    res = rapids.restore("bench-process", parallelism="process",
                         processes=processes)
    out["restore_process_s"] = time.perf_counter() - t0
    if res.data is None or res.data.shape != data.shape:
        raise SystemExit("process-mode restore failed in-bench")
    rapids.catalog.close()
    return out


_RSS_RUNNER = """\
import json, sys
import numpy as np
from pathlib import Path
from repro.core import RAPIDS
from repro.metadata import MetadataCatalog
from repro.refactor import Refactorer
from repro.storage import FileStorageCluster
from repro.transfer import paper_bandwidth_profile

npy, ws, processes, tile_planes = sys.argv[1:5]
ws = Path(ws)
cluster = FileStorageCluster(ws / "cluster",
                             bandwidths=paper_bandwidth_profile(16))
catalog = MetadataCatalog(ws / "meta")
rapids = RAPIDS(cluster, catalog, refactorer=Refactorer(4, num_planes=22))
if npy != "baseline":
    rep = rapids.prepare(
        "rss-probe", npy, parallelism="process",
        processes=int(processes), tile_planes=int(tile_planes),
    )
catalog.close()
# ru_maxrss is unusable here: on Linux it survives fork+exec, so a fat
# bench parent would leak its own high-water mark into every probe.
# VmHWM belongs to this process's fresh mm and resets on exec.
hwm_kib = None
with open("/proc/self/status") as f:
    for line in f:
        if line.startswith("VmHWM:"):
            hwm_kib = int(line.split()[1])
print(json.dumps({"vm_hwm_kib": hwm_kib}))
"""


def _rss_probe(npy: str, td: Path, tag: str, *, processes: int,
               tile_planes: int) -> int:
    """Peak RSS (bytes) of a prepare parent run in a fresh interpreter."""
    ws = td / f"rss-{tag}"
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_RUNNER, npy, str(ws),
         str(processes), str(tile_planes)],
        capture_output=True, text=True, check=True, env=env,
    )
    return json.loads(proc.stdout.splitlines()[-1])["vm_hwm_kib"] * 1024


def measure_rss_scaling(td: Path, *, planes_small: int, planes_big: int,
                        base_shape: tuple[int, int], processes: int,
                        tile_planes: int) -> dict:
    """Peak RSS at two dataset sizes with identical streaming settings.

    Both runs stream tiles of ``tile_planes`` planes through the same
    in-flight window (a function of ``processes`` alone), so the
    parent's peak RSS should barely move while the dataset doubles —
    that is the O(tiles-in-flight) bound.
    """
    out = {"processes": processes, "tile_planes": tile_planes}
    row = int(np.prod(base_shape)) * 8
    out["tile_nbytes"] = tile_planes * row
    out["baseline_rss"] = _rss_probe(
        "baseline", td, "baseline", processes=processes,
        tile_planes=tile_planes)
    for tag, planes in (("small", planes_small), ("big", planes_big)):
        shape = (planes,) + base_shape
        data = nyx_temperature(shape).astype(np.float64)
        npy = td / f"rss-{tag}.npy"
        np.save(npy, data)
        del data
        out[f"nbytes_{tag}"] = planes * row
        out[f"rss_{tag}"] = _rss_probe(
            str(npy), td, tag, processes=processes,
            tile_planes=tile_planes)
    out["rss_growth"] = out["rss_big"] - out["rss_small"]
    out["data_growth"] = out["nbytes_big"] - out["nbytes_small"]
    out["growth_ratio"] = out["rss_growth"] / out["data_growth"]
    return out


def check_archival(arch: dict) -> None:
    if not (arch["lower_bound"] - 1e-9 <= arch["completion"]
            <= arch["sequential_completion"] + 1e-9):
        raise SystemExit(
            f"archival schedule out of bounds: {arch['lower_bound']:.3f} <= "
            f"{arch['completion']:.3f} <= {arch['sequential_completion']:.3f}"
        )
    if arch["overlap_saving"] < -1e-9:
        raise SystemExit("pipelined archival slower than sequential")


def main(argv=None) -> None:
    import argparse

    from harness import print_table, write_bench_artifact

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced sizes for CI: verifies bit identity and schedule "
             "sanity, skips the speedup/RSS assertions (shared runners "
             "are too noisy to gate on)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        shape, processes = (96, 96, 64), 2
        planes_small, planes_big, base = 64, 128, (96, 64)
        tile_planes = 16
        bench_tile_planes = 16  # ~0.75 MiB tiles: exercise the pool even at smoke size
    else:
        # 512 x 128 x 128 float64 = 64 MiB: the acceptance-bar size.
        shape, processes = (512, 128, 128), 4
        planes_small, planes_big, base = 512, 1024, (128, 128)
        tile_planes = 32
        bench_tile_planes = None  # default ~8 MiB tiles

    data = nyx_temperature(shape).astype(np.float64)
    result = {"shape": list(shape), "nbytes": int(data.nbytes)}

    with tempfile.TemporaryDirectory() as td_:
        td = Path(td_)
        result["identity"] = verify_bit_identity(data, td, processes,
                                                 bench_tile_planes)
        print(f"bit identity: pooled ({processes} procs) == serial over "
              f"{result['identity']['num_fragments']} fragments, "
              f"{result['identity']['serial_tiles']} tiles")

        timing = time_prepare_modes(data, td, processes, bench_tile_planes)
        result["timing"] = timing
        check_archival(timing["archival"])
        del data

        rss = measure_rss_scaling(
            td, planes_small=planes_small, planes_big=planes_big,
            base_shape=base, processes=processes, tile_planes=tile_planes)
        result["rss"] = rss

    mib = 2**20
    print_table(
        f"procpipe prepare, {result['nbytes'] / mib:.0f} MiB float64",
        ["mode", "wall s", "vs like-for-like", "vs measured"],
        [
            ["one tile, threads, measured errors (default)",
             f"{timing['prepare_thread_s']:.2f}", "-", "1.00x"],
            ["one tile, threads, measure_errors=False",
             f"{timing['prepare_thread_nomeasure_s']:.2f}", "1.00x",
             f"{timing['prepare_thread_s'] / timing['prepare_thread_nomeasure_s']:.2f}x"],
            [f"tiled, process x{processes}",
             f"{timing['prepare_process_s']:.2f}",
             f"{timing['speedup']:.2f}x",
             f"{timing['speedup_vs_measured']:.2f}x"],
        ],
    )
    arch = timing["archival"]
    print(f"pipelined archival: completion {arch['completion']:.3f}s, "
          f"sequential {arch['sequential_completion']:.3f}s, "
          f"saving {arch['overlap_saving']:.3f}s")
    print(f"peak RSS: baseline {rss['baseline_rss'] / mib:.0f} MiB, "
          f"{rss['nbytes_small'] / mib:.0f} MiB input -> "
          f"{rss['rss_small'] / mib:.0f} MiB, "
          f"{rss['nbytes_big'] / mib:.0f} MiB input -> "
          f"{rss['rss_big'] / mib:.0f} MiB "
          f"(growth ratio {rss['growth_ratio']:.3f})")

    result["mode"] = "smoke" if args.smoke else "full"
    path = write_bench_artifact("procpipe", result)
    print(f"\nwrote {path}")

    if not args.smoke:
        if timing["speedup"] < 1.0:
            raise SystemExit(
                f"tiled process prepare is {timing['speedup']:.2f}x the "
                "one-tile thread prepare doing the same work "
                "(measure_errors=False): the pool no longer pays for itself"
            )
        if rss["growth_ratio"] > 0.35:
            raise SystemExit(
                f"peak RSS grew {rss['growth_ratio']:.2f}x with the dataset "
                "-- the streaming pipeline is no longer bounded by "
                "tiles in flight"
            )


if __name__ == "__main__":
    main()

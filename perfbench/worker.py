"""One workload, one pass, in this process.  Started by ``run.py``.

Takes one JSON argument (workload, seed, seconds, cycles, trace, smoke,
workdir, spans) and prints one JSON object as the last line of stdout.

An untraced pass is a single measured part.  A traced pass measures a
first part with no wrappers installed, then installs them and measures a
second part: the first gives the per-operation numbers and the base for
``trace.overhead_ratio``, the second the per-layer numbers.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time

import stats
import trace

#: Share of a traced pass's time spent before the wrappers go in.
UNTRACED_SHARE = 0.4


def _peak_rss_mib() -> float:
    """VmHWM of this process plus the largest reaped child's peak."""
    own = 0
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                own = int(line.split()[1])  # KiB
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # KiB on Linux
    return (own + child) / 1024.0


def _op_metrics(wl, part) -> tuple[dict, dict]:
    """End-to-end metrics and per-operation summaries of one measured part."""
    ops = {op: stats.summarize(v) for op, v in part["samples"].items()}
    p50 = {op: ops[op]["p50"] for op in ops}
    e2e = {
        "ops_per_s": statistics.median(part["rates"]),
        "write_p50_ms": 1e3 * p50.get(wl.write_op, 0.0),
        "read_p50_ms": 1e3 * p50.get(wl.read_op, 0.0),
    }
    return e2e, ops


def _layer_metrics(agg, cycles: int) -> dict:
    """Per-layer metrics from the span aggregate, per measured cycle."""
    spans, notes = agg["spans"], agg["notes"]

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0) / cycles

    def calls(name):
        return spans.get(name, {}).get("calls", 0) / cycles

    def nbytes(name):
        return spans.get(name, {}).get("bytes", 0) / cycles

    def note(key):
        return notes.get(key, 0.0) / cycles

    def rate(num, den):
        return num / den / 1e6 if den else 0.0

    prepares = calls("pipeline.prepare")
    out = {f"pipeline.{k}_s": note(f"pipeline.{k}_s") for k in (
        "read", "refactor", "ft_optimize", "ec_encode", "write", "metadata",
        "gather_optimize", "gather", "ec_decode", "reconstruct",
    )}
    out["pipeline.self_s"] = (
        total("pipeline.prepare") + total("pipeline.restore")
        - note("pipeline.staged_s")
    )
    for key in ("num_tiles", "arena_peak_bytes", "spooled_bytes", "arena_leaked"):
        # per prepare, not per cycle: these are properties of one object
        out[f"procpipe.{key}"] = (
            note(f"procpipe.{key}") / prepares if prepares else 0.0
        )
    out.update({
        "refactor.refactor_s": total("refactor.refactor"),
        "refactor.reconstruct_s": total("refactor.reconstruct"),
        "refactor.calls": calls("refactor.refactor") + calls("refactor.reconstruct"),
        "refactor.bytes_in": nbytes("refactor.refactor"),
        "refactor.bytes_out": note("refactor.bytes_out"),
        "refactor.MBps": rate(nbytes("refactor.refactor"), total("refactor.refactor")),
        "ec.encode_s": total("ec.encode"),
        "ec.encode_bytes": nbytes("ec.encode"),
        "ec.encode_MBps": rate(nbytes("ec.encode"), total("ec.encode")),
        "ec.decode_s": total("ec.decode"),
        "ec.decode_bytes": nbytes("ec.decode"),
        "ec.decode_with_erasures": note("ec.decode_with_erasures"),
        "ec.repair_s": total("ec.repair"),
        "ec.repair_calls": calls("ec.repair"),
        "storage.place_s": total("storage.place"),
        "storage.place_bytes": nbytes("storage.place"),
        "storage.place_files": calls("storage.place"),
        "storage.fetch_s": total("storage.fetch"),
        "storage.fetch_bytes": nbytes("storage.fetch"),
        "storage.fetch_calls": calls("storage.fetch"),
        "storage.locate_s": total("storage.locate"),
        "storage.locate_calls": calls("storage.locate"),
        "metadata.put_s": total("metadata.put"),
        "metadata.put_calls": calls("metadata.put"),
        "metadata.get_s": total("metadata.get"),
        "metadata.get_calls": calls("metadata.get"),
        "metadata.scan_calls": calls("metadata.scan"),
        "healing.ledger_record_s": total("healing.ledger_record"),
        "healing.scrub_s": total("healing.scrub"),
        "healing.repair_s": total("healing.repair"),
        "healing.fragments_verified": note("healing.fragments_verified"),
        "healing.fragments_repaired": note("healing.fragments_repaired"),
        "healing.source_reads": note("healing.source_reads"),
        "service.submit_s": total("service.submit"),
        "service.journal_s": total("service.journal"),
        "chaos.retry_calls": calls("chaos.retry"),
        "chaos.retry_attempts": note("chaos.retry_attempts"),
        "transfer.distribution_latency_s": note("transfer.distribution_latency_s"),
        "transfer.network_bytes": note("transfer.network_bytes"),
    })
    return out


def _dir_bytes(path) -> int:
    return sum(
        os.path.getsize(os.path.join(root, f))
        for root, _, files in os.walk(path) for f in files
    )


def run_pass(cfg: dict, t_start: float) -> dict:
    # numpy, scipy and the library load here, inside setup_s
    import numpy
    import scipy

    from workloads import Budget, make_workload

    wl = make_workload(cfg["workload"], cfg["seed"], cfg["workdir"], cfg["smoke"])
    seconds, cycles = cfg["seconds"], cfg["cycles"]
    if cycles is None and cfg["smoke"]:
        cycles = wl.smoke_cycles
    layers: dict = {}
    self_s: dict = {}
    traced_cycles = 0
    try:
        wl.setup()
        setup_s = time.perf_counter() - t_start
        if not cfg["trace"]:
            part = wl.run(Budget(seconds, cycles))
        else:
            first = None if cycles is None else max(1, cycles // 2)
            part = wl.run(Budget(seconds * UNTRACED_SHARE, first))
            tracer = trace.Tracer()
            with tracer:
                wl.tracer = tracer
                traced = wl.run(Budget(seconds * (1 - UNTRACED_SHARE), cycles))
                wl.tracer = None
            facts = wl.facts()
            agg = trace.aggregate(tracer.spans, tracer.notes)
            n = traced_cycles = traced["cycles"]
            layers = {**_layer_metrics(agg, n), **facts}
            layers["metadata.wal_bytes"] = _dir_bytes(wl.workdir / "catalog")
            layers["trace.overhead_ratio"] = (
                statistics.median(part["rates"]) / statistics.median(traced["rates"])
            )
            self_s = {
                name: row["self_s"] / n for name, row in sorted(agg["spans"].items())
            }
            if cfg["spans"]:
                tracer.write_jsonl(cfg["spans"])
        wl.finish()
        stored, user = wl.resident()
        e2e, ops = _op_metrics(wl, part)
        e2e.update({
            "setup_s": setup_s,
            "peak_rss_mib": _peak_rss_mib(),
            "stored_bytes_per_user_byte": stored / user if user else 0.0,
        })
        if cfg["trace"]:
            layers.update(wl.op_rates(ops))
            for op in ("prepare", "restore"):
                layers[f"op.{op}_p50_ms"] = 1e3 * ops.get(op, {}).get("p50", 0.0)
            layers["op.restore_rel_linf_error"] = wl.worst_error
            layers["op.failed_ops_ratio"] = wl.failed / max(1, wl.attempted)
        return {
            "workload": wl.name, "seed": cfg["seed"], "trace": cfg["trace"],
            "smoke": cfg["smoke"], "digest": wl.schedule_digest(),
            "cycles": part["cycles"], "measured_s": part["busy_s"],
            "traced_cycles": traced_cycles,
            "attempted": wl.attempted, "failed": wl.failed,
            "failures": wl.failures, "e2e": e2e, "ops": ops, "layers": layers,
            "layer_self_s": self_s,
            "restore_rel_linf_error": wl.worst_error,
            "versions": {"python": platform.python_version(),
                         "numpy": numpy.__version__, "scipy": scipy.__version__},
        }
    finally:
        wl.close()


def main(argv) -> int:
    t_start = time.perf_counter()
    cfg = json.loads(argv[1])
    result = run_pass(cfg, t_start)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

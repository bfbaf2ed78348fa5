"""Archive-service traffic benchmark (repro.service).

The top-level service benchmark: sustained ops/s and p50/p99 latency for
mixed-tenant traffic over ``ArchiveService``, under overload and one
injected backend outage, for at least two tenant mixes:

* **balanced** — three equal-weight tenants at a moderate arrival rate;
* **hog** — one tenant submitting 8x the traffic of another at twice
  the rate: the admission and round-robin fairness stress case.

Each mix runs twice in deterministic simulated time (ManualClock +
inline pump) and the two transcripts — every result, shed, metric and
injected fault — must be **byte-identical**: the replay guarantee the
chaos suite builds on.  Three invariants gate the run:

* replay divergence is a hard failure (exit 3);
* the ``hog`` mix must show zero cross-tenant starvation — the steady
  tenant keeps completing while the hog floods (exit 4);
* every result past its deadline must carry a degraded or typed status,
  never a silent success (exit 5).

A wall-clock threaded run per mix reports *sustained* ops/s against the
started service thread (informational; shared runners are too noisy to
gate on).

Usage::

    python benchmarks/bench_service.py            # full run
    python benchmarks/bench_service.py --smoke    # CI: reduced counts

Results land in ``BENCH_service.json`` via
:func:`harness.write_bench_artifact`.
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

from repro.chaos import FaultInjector, FaultPlan, FaultSpec
from repro.core import RAPIDS
from repro.metadata import MetadataCatalog
from repro.refactor import Refactorer
from repro.service import (
    STANDARD_MIXES,
    ArchiveService,
    ManualClock,
    ServiceConfig,
    ServiceRequest,
    drive_open_loop,
    drive_threaded,
    make_schedule,
    synthetic_field,
)
from repro.storage import StorageCluster
from repro.transfer import paper_bandwidth_profile

N_SYSTEMS = 8
OUTAGE_SID = 1


def build_service(td: Path, label: str, *, threaded: bool = False):
    cluster = StorageCluster(paper_bandwidth_profile(N_SYSTEMS))
    catalog = MetadataCatalog(td / f"meta-{label}")
    rapids = RAPIDS(cluster, catalog, refactorer=Refactorer(4), omega=0.3)
    clk = ManualClock()
    cfg = ServiceConfig(
        queue_capacity=24,
        rate=10_000.0,
        burst=10_000.0,
        clock=time.monotonic if threaded else clk,
    )
    return rapids, ArchiveService(rapids, config=cfg), clk


def seed_objects(svc, seed: int) -> list[str]:
    objects = []
    for i in range(2):
        name = f"bench/base/{i}"
        t = svc.submit(ServiceRequest(
            tenant="setup", op="prepare", name=name,
            data=synthetic_field(seed + i, 4096),
        ))
        svc.pump()
        res = t.result(timeout=0)
        if res.status != "ok":
            raise SystemExit(f"setup prepare failed: {res.error}")
        objects.append(name)
    return objects


def overload_plan(seed: int) -> FaultPlan:
    """One backend down from the start, plus light service-seam faults."""
    return FaultPlan(seed=seed, specs=(
        FaultSpec(site="system.outage", effect="outage",
                  where={"system_id": OUTAGE_SID}),
        FaultSpec(site="service.admit", effect="error", probability=0.05),
        FaultSpec(site="service.journal", effect="error",
                  probability=0.1, where={"state": "done"}),
    ))


def run_mix_deterministic(
    td: Path, mix_name: str, *, requests: int, seed: int, tag: str
) -> tuple[str, dict]:
    """One seeded overload-plus-outage round in simulated time.

    Returns the canonical-JSON transcript (for the replay check) and the
    report summary.  ``pump_interval=3`` executes one request per three
    arrivals — a service at a third of the offered load, so queue
    growth, shedding and deadline pressure are all real.
    """
    mix = STANDARD_MIXES[mix_name]
    rapids, svc, clk = build_service(td, f"{mix_name}-{tag}")
    objects = seed_objects(svc, seed)

    injector = FaultInjector(overload_plan(seed))
    svc.attach_injector(injector)
    rapids.attach_injector(injector)
    injector.apply_outages(rapids.cluster)

    schedule = make_schedule(mix, objects=objects, count=requests, seed=seed)
    report = drive_open_loop(
        svc, clk, schedule, mix_name=mix.name, seed=seed,
        pump_interval=3, service_tick=0.05,
    )

    for r in report.results:
        if not r.deadline_met and r.status not in (
            "degraded", "deadline", "failed"
        ):
            raise SystemExit(
                f"result {r.request_id} blew its deadline with untyped "
                f"status {r.status!r} (exit 5)"
            )

    transcript = json.dumps({
        "summary": report.summary(),
        "results": [r.to_dict() for r in report.results],
        "sheds": report.sheds,
        "metrics": svc.snapshot(),
        "faults": [
            f"{rec.site}:{rec.effect}#{rec.occurrence}"
            for rec in injector.log
        ],
    }, sort_keys=True)
    return transcript, report.summary()


def run_mix_threaded(
    td: Path, mix_name: str, *, requests: int, seed: int
) -> dict:
    """Wall-clock sustained throughput against the started service thread."""
    mix = STANDARD_MIXES[mix_name]
    rapids, svc, _clk = build_service(td, f"{mix_name}-wall", threaded=True)
    objects = seed_objects(svc, seed)
    schedule = make_schedule(mix, objects=objects, count=requests, seed=seed)
    svc.start()
    report = drive_threaded(
        svc, schedule, mix_name=mix.name, seed=seed, time_scale=0.05,
    )
    svc.stop()
    s = report.summary()
    return {
        "completed": s["completed"],
        "shed": s["shed"],
        "wall_ops_per_s": s["ops_per_s"],
        "wall_p50_s": s["latency_p50_s"],
        "wall_p99_s": s["latency_p99_s"],
    }


def main(argv=None) -> None:
    import argparse

    from harness import print_table, write_bench_artifact

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced request counts for CI")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    requests = 60 if args.smoke else 200
    result: dict = {"seed": args.seed, "requests_per_mix": requests,
                    "outage_system": OUTAGE_SID, "mixes": {}}

    with tempfile.TemporaryDirectory() as td_:
        td = Path(td_)
        rows = []
        for mix_name in sorted(STANDARD_MIXES):
            first, summary = run_mix_deterministic(
                td, mix_name, requests=requests, seed=args.seed, tag="a")
            again, _ = run_mix_deterministic(
                td, mix_name, requests=requests, seed=args.seed, tag="b")
            if first != again:
                raise SystemExit(
                    f"REPLAY MISMATCH: mix {mix_name!r} seed {args.seed} "
                    "produced different transcripts on identical runs "
                    "(exit 3)"
                )
            wall = run_mix_threaded(
                td, mix_name, requests=requests, seed=args.seed)
            result["mixes"][mix_name] = {
                "summary": summary,
                "replay_identical": True,
                "wall_clock": wall,
            }
            rows.append([
                mix_name,
                summary["completed"],
                summary["shed"],
                f"{summary['ops_per_s']:.1f}",
                f"{summary['latency_p50_s'] * 1e3:.1f}",
                f"{summary['latency_p99_s'] * 1e3:.1f}",
                f"{wall['wall_ops_per_s']:.1f}",
            ])

        hog = result["mixes"]["hog"]["summary"]["by_tenant"]
        if hog.get("steady", {}).get("completed", 0) == 0:
            raise SystemExit(
                "STARVATION: the steady tenant completed nothing while "
                "the hog flooded (exit 4)"
            )

    print_table(
        f"archive service, {requests} requests/mix, seed {args.seed}, "
        f"system {OUTAGE_SID} down",
        ["mix", "done", "shed", "sim ops/s", "p50 ms", "p99 ms",
         "wall ops/s"],
        rows,
    )
    hog_bt = result["mixes"]["hog"]["summary"]["by_tenant"]
    print(f"fairness: hog p99 {hog_bt['hog']['p99_s'] * 1e3:.1f} ms vs "
          f"steady p99 {hog_bt['steady']['p99_s'] * 1e3:.1f} ms")
    print("replay: byte-identical transcripts for every mix")

    result["mode"] = "smoke" if args.smoke else "full"
    path = write_bench_artifact("service", result)
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()

"""``rapids`` command-line interface.

Subcommands::

    rapids refactor  <in.npy> <out dir>     refactor an array to components
    rapids reconstruct <dir> <out.npy>      rebuild from a component prefix
    rapids optimize-ft                      solve the FT configuration model
    rapids estimate-bandwidth               synthesize logs + estimate (§5.1.2)
    rapids info <dir>                       describe a refactored object
    rapids lint [paths...]                  run the rapidslint static analyzer
    rapids chaos                            replay a fault plan end to end
    rapids scrub                            verify a workspace at rest; repair
    rapids reconfigure                      exact re-solve + live migration
    rapids scenarios                        run the chaos-campaign scenario suite
    rapids serve                            multi-tenant archive service / driver

The CLI operates on a simple on-disk layout: ``<dir>/component-XX.bin``
plus a ``manifest`` container holding the reconstruction metadata.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import FTProblem, brute_force
from .refactor import Refactorer
from .refactor.serialization import load_directory, save_directory
from .transfer import GB, estimate_bandwidths, generate_transfer_logs

__all__ = ["build_parser", "main"]

_write_refactored = save_directory


def _read_refactored(indir: Path, upto: int | None = None):
    return load_directory(indir, upto=upto)


def _cmd_refactor(args) -> int:
    data = np.load(args.input)
    refactorer = Refactorer(
        args.components, num_planes=args.planes, correction=not args.no_correction
    )
    obj = refactorer.refactor(data, measure_errors=not args.fast)
    _write_refactored(obj, Path(args.outdir))
    print(f"refactored {data.shape} {data.dtype} -> {obj.num_components} "
          f"components, {obj.total_bytes} bytes "
          f"(compression {obj.compression_ratio:.2f}x)")
    for j, (s, e) in enumerate(zip(obj.sizes, obj.errors)):
        print(f"  component {j + 1}: {s:>10d} bytes   e_{j + 1} = {e:.3e}")
    return 0


def _cmd_reconstruct(args) -> int:
    obj = _read_refactored(Path(args.indir), upto=args.upto)
    refactorer = Refactorer(obj.num_components)
    data = refactorer.reconstruct(obj)
    np.save(args.output, data)
    print(f"reconstructed {data.shape} {data.dtype} from "
          f"{len(obj.payloads)} component(s) -> {args.output}")
    if obj.errors:
        print(f"  recorded error for this prefix: {obj.errors[-1]:.3e}")
    return 0


def _cmd_info(args) -> int:
    obj = _read_refactored(Path(args.indir))
    print(json.dumps(
        {
            "shape": list(obj.shape),
            "dtype": obj.dtype,
            "components": obj.num_components,
            "sizes": obj.sizes,
            "errors": obj.errors,
            "total_bytes": obj.total_bytes,
            "compression_ratio": obj.compression_ratio,
        },
        indent=2,
    ))
    return 0


def _cmd_optimize_ft(args) -> int:
    sizes = tuple(float(s) for s in args.sizes.split(","))
    errors = tuple(float(e) for e in args.errors.split(","))
    problem = FTProblem(
        n=args.systems, p=args.p, sizes=sizes, errors=errors,
        original_size=args.original_size, omega=args.omega,
    )
    sol = brute_force(problem)
    print(f"optimal m_j = {sol.ms}")
    print(f"expected relative error = {sol.expected_error:.4e}")
    print(f"storage overhead = {sol.overhead:.4f} (budget {args.omega})")
    print(f"{sol.evaluations} model evaluations in {sol.elapsed * 1e3:.2f} ms")
    return 0


def _open_workspace(workspace: str, *, systems: int | None = None):
    """Open (or create) a persistent prepare/restore workspace."""
    from .core import RAPIDS
    from .metadata import MetadataCatalog
    from .storage import FileStorageCluster
    from .transfer import paper_bandwidth_profile

    ws = Path(workspace)
    if (ws / "cluster" / "cluster.json").exists():
        cluster = FileStorageCluster(ws / "cluster")
    else:
        n = systems or 16
        cluster = FileStorageCluster(
            ws / "cluster", bandwidths=paper_bandwidth_profile(n)
        )
    catalog = MetadataCatalog(ws / "metadata")
    return RAPIDS(cluster, catalog), catalog


def _cmd_prepare(args) -> int:
    rapids, catalog = _open_workspace(args.workspace, systems=args.systems)
    parallelism = None if args.parallelism == "auto" else args.parallelism
    try:
        rapids.omega = args.omega
        # Hand the path straight to prepare(): the process pipeline then
        # streams tiles out of the .npy file instead of loading it whole.
        rep = rapids.prepare(
            args.name, args.input,
            parallelism=parallelism,
            processes=args.workers,
            tile_planes=args.tile_planes,
        )
        print(f"prepared {args.name!r}: m = {rep.ft_config}")
        print(f"  storage overhead {rep.storage_overhead:.4f} "
              f"(budget {args.omega})")
        print(f"  expected relative error {rep.expected_error:.4e}")
        print(f"  simulated distribution latency "
              f"{rep.distribution_latency:.3f}s")
        pp = rep.extra.get("procpipe")
        if pp:
            print(f"  pipeline mode {pp['mode']} "
                  f"({pp['processes']} processes, {pp['num_tiles']} tiles)")
        arch = rep.extra.get("archival")
        if arch:
            print(f"  pipelined archival completion {arch['completion']:.3f}s "
                  f"(overlap saving {arch['overlap_saving']:.3f}s)")
    finally:
        catalog.close()
    return 0


def _cmd_restore(args) -> int:
    rapids, catalog = _open_workspace(args.workspace)
    try:
        failed = (
            [int(s) for s in args.failed.split(",")] if args.failed else []
        )
        rapids.cluster.restore_all()
        rapids.cluster.fail(failed)
        res = rapids.restore(
            args.name,
            strategy=args.strategy,
            target_error=args.target_error,
            parallelism=(None if args.parallelism == "auto"
                         else args.parallelism),
            processes=args.workers,
        )
        if res.data is None:
            print(f"{args.name!r}: no level recoverable under "
                  f"{len(failed)} failures")
            return 2
        np.save(args.output, res.data)
        print(f"restored {args.name!r} -> {args.output}")
        print(f"  levels used {res.levels_used}, recorded error "
              f"{res.achieved_error:.4e}")
        print(f"  simulated gathering latency {res.gathering_latency:.3f}s")
    finally:
        rapids.cluster.restore_all()
        catalog.close()
    return 0


def _cmd_simulate(args) -> int:
    from .sim import CampaignConfig, run_campaign

    ms = tuple(int(m) for m in args.ms.split(","))
    errors = tuple(float(e) for e in args.errors.split(","))
    cfg = CampaignConfig(
        n=args.systems, p_fail=args.p_fail, p_repair=args.p_repair,
        ms=ms, errors=errors, epochs=args.epochs,
        requests_per_epoch=args.requests,
    )
    stats = run_campaign(cfg, seed=args.seed)
    print(f"campaign: {cfg.epochs} epochs x {cfg.requests_per_epoch} "
          f"requests, steady-state p = {cfg.steady_state_p:.4f}")
    print(f"  availability          : {stats.availability:.6f}")
    print(f"  full-accuracy fraction: {stats.full_accuracy_fraction:.6f}")
    print(f"  mean relative error   : {stats.mean_error:.4e}")
    print(f"  max concurrent outages: {stats.max_concurrent_failures}")
    for levels in sorted(stats.levels_histogram):
        count = stats.levels_histogram[levels]
        print(f"  {levels} level(s) restored : {count} requests")
    return 0


def _cmd_validate(args) -> int:
    from .sim import simulate_expected_error

    ms = [int(m) for m in args.ms.split(",")]
    errors = [float(e) for e in args.errors.split(",")]
    res = simulate_expected_error(
        args.systems, args.p, ms, errors, trials=args.trials, seed=args.seed
    )
    print(f"Eq. 5 analytic expected error : {res.analytic:.6e}")
    print(f"Monte Carlo ({res.trials} trials): {res.empirical:.6e} "
          f"± {res.std_error:.1e}")
    print(f"z-score: {res.z_score:+.2f}")
    return 0 if abs(res.z_score) < 5 else 2


def _cmd_lint(args) -> int:
    from .analysis import all_rules, run_lint

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}  {rule.name:<24} [{rule.severity}] "
                  f"{rule.description}")
        return 0
    select = (
        [s.strip() for s in args.select.split(",") if s.strip()]
        if args.select
        else None
    )
    return run_lint(
        args.paths,
        select=select,
        fmt=args.format,
        changed_base=args.changed,
    )


def _chaos_round(
    plan, *, size: int, systems: int, strategy: str, reconfigure: bool = False
) -> dict:
    """One prepare → inject → restore round under ``plan``.

    Preparation runs clean (the round needs a healthy object to attack);
    the injector and its outages are applied before restore.  Returns a
    JSON-able outcome dict whose bytes depend only on ``(seed, plan)`` —
    the replay-verification contract.

    ``reconfigure`` runs one control-loop step between outage and
    restore: the operator observes the outage set, re-solves, and
    migrates if it can do so safely (with systems down, migrations
    defer — which the outcome records).  Off by default so existing
    plans' replay digests are unperturbed.
    """
    import hashlib
    import tempfile

    from .chaos import FaultInjector, InjectedFault
    from .core import RAPIDS
    from .metadata import MetadataCatalog
    from .storage import StorageCluster
    from .transfer import paper_bandwidth_profile

    rng = np.random.default_rng(plan.seed)
    data = rng.standard_normal((size, size, size)).astype(np.float32)
    cluster = StorageCluster(paper_bandwidth_profile(systems))
    reconf = None
    with tempfile.TemporaryDirectory() as tmp:
        with MetadataCatalog(Path(tmp) / "meta") as catalog:
            rapids = RAPIDS(cluster, catalog, ec_workers=1)
            rapids.prepare("chaos:demo", data)
            injector = FaultInjector(plan).install(rapids)
            outages = injector.apply_outages(cluster)
            if reconfigure:
                from .control import ReconfigOperator

                try:
                    ev = ReconfigOperator(rapids).step(0, outages)
                    reconf = {
                        "action": ev["action"],
                        "migrations": ev["migrations"],
                        "healed": ev["healed"],
                    }
                except (InjectedFault, KeyError, ValueError,
                        OSError, RuntimeError) as exc:
                    # The injector may fault the operator's own metadata
                    # reads; record it deterministically, keep restoring.
                    reconf = {"error": repr(exc)}
            report = rapids.restore("chaos:demo", strategy=strategy)
    digest = (
        hashlib.sha256(report.data.tobytes()).hexdigest()
        if report.data is not None
        else None
    )
    outcome = {
        "seed": plan.seed,
        "outages": outages,
        "levels_used": report.levels_used,
        "achieved_error": report.achieved_error,
        "data_sha256": digest,
        "degraded": (
            report.degraded.to_dict() if report.degraded is not None else None
        ),
        "injected": injector.summary(),
    }
    if reconfigure:
        outcome["reconfigured"] = reconf
    return outcome


def _chaos_workspace(plan, args) -> int:
    """Persist a plan's damage into a workspace: at-rest rot + outages.

    The counterpart to the synthetic round: instead of preparing a
    throwaway object, the plan's damage specs are inflicted on the
    fragments already resident in ``--workspace`` (deletions, bit rot,
    truncation — checksums kept stale on purpose) and its outages are
    marked persistently.  ``rapids scrub --repair`` heals it back.
    """
    from .chaos import FaultInjector, inflict_at_rest

    rapids, catalog = _open_workspace(args.workspace)
    try:
        inflicted = inflict_at_rest(plan, rapids.cluster)
        outages = FaultInjector(plan).apply_outages(rapids.cluster)
    finally:
        catalog.close()
    if args.json:
        print(json.dumps(
            {"seed": plan.seed, "outages": outages, "inflicted": inflicted},
            indent=2, sort_keys=True,
        ))
    else:
        print(f"plan: {plan.describe()}")
        print(f"  outages (persisted): {outages or 'none'}")
        counts: dict[str, int] = {}
        for rec in inflicted:
            counts[rec["effect"]] = counts.get(rec["effect"], 0) + 1
        for effect, cnt in sorted(counts.items()):
            print(f"  inflicted {effect} x{cnt}")
        if not inflicted and not outages:
            print("  nothing inflicted (plan has no at-rest damage specs)")
        print(f"heal with: rapids scrub --repair "
              f"--workspace {args.workspace}")
    return 0


def _cmd_chaos(args) -> int:
    from .chaos import FaultPlan

    if args.plan:
        plan = FaultPlan.load(args.plan)
        if args.seed is not None:
            plan = plan.with_seed(args.seed)
        plan_path = args.plan
    else:
        plan = FaultPlan.random(
            args.seed if args.seed is not None else 0,
            n_systems=args.systems,
            intensity=args.intensity,
        )
        plan_path = None
    if args.emit_plan:
        plan.save(args.emit_plan)
        plan_path = args.emit_plan

    if args.workspace:
        return _chaos_workspace(plan, args)

    outcome = _chaos_round(
        plan, size=args.size, systems=args.systems, strategy=args.strategy,
        reconfigure=args.reconfigure,
    )
    if args.verify_replay:
        again = _chaos_round(
            plan, size=args.size, systems=args.systems, strategy=args.strategy,
            reconfigure=args.reconfigure,
        )
        if json.dumps(outcome, sort_keys=True) != json.dumps(again, sort_keys=True):
            print("REPLAY MISMATCH: identical (seed, plan) produced "
                  "different outcomes", file=sys.stderr)
            return 3

    if args.json:
        print(json.dumps(outcome, indent=2, sort_keys=True))
    else:
        print(f"plan: {plan.describe()}")
        print(f"  outages: {outcome['outages'] or 'none'}")
        for key, count in sorted(outcome["injected"].items()):
            print(f"  injected {key} x{count}")
        print(f"  levels restored: {outcome['levels_used']} "
              f"(error bound {outcome['achieved_error']:.3e})")
        if outcome["degraded"] is not None:
            for fail in outcome["degraded"]["failures"]:
                print(f"  FAILED level {fail['level']} "
                      f"[{fail['stage']}]: {fail['error']}")
        if args.verify_replay:
            print("  replay verified: identical outcome on second run")
        if plan_path:
            print(f"replay with: rapids chaos --plan {plan_path}")
        else:
            print("replay with: rapids chaos "
                  f"--seed {plan.seed} --intensity {args.intensity} "
                  f"--systems {args.systems} (or --emit-plan to save it)")
    clean = outcome["degraded"] is None and outcome["data_sha256"] is not None
    return 0 if clean else 2


def _cmd_reconfigure(args) -> int:
    from .control import ReconfigOperator

    rapids, catalog = _open_workspace(args.workspace)
    code = 0
    results: list[dict] = []
    try:
        if args.omega is not None:
            rapids.omega = args.omega
        if args.p is not None:
            rapids.p = args.p
        operator = ReconfigOperator(rapids)
        names = [args.object] if args.object else catalog.list_objects()
        for name in names:
            rec = catalog.get_object(name)
            sol = operator.plan(name)
            entry = {
                "object": name,
                "evaluations": sol.evaluations,
                "from": [int(m) for m in rec.ft_config],
                "to": [int(m) for m in sol.ms],
                "expected_error": sol.expected_error,
                "overhead": sol.overhead,
            }
            if entry["to"] != entry["from"] and not args.dry_run:
                report = operator.migrator.migrate(name, sol.ms)
                entry["migrated"] = report.migrated
                entry["deferred"] = report.deferred
                entry["deferred_reasons"] = [
                    s.reason for s in report.steps if s.action == "deferred"
                ]
                if report.deferred:
                    code = 2
            results.append(entry)
    finally:
        catalog.close()
    if args.json:
        print(json.dumps(results, indent=2, sort_keys=True))
        return code
    for entry in results:
        changed = entry["to"] != entry["from"]
        print(f"{entry['object']!r}: m = {entry['from']} -> {entry['to']}"
              f" [{entry['evaluations']} evals]")
        if not changed:
            print("  already optimal under the given parameters")
        elif args.dry_run:
            print("  dry run: no migration performed")
        else:
            print(f"  migrated {entry.get('migrated', 0)} level(s), "
                  f"deferred {entry.get('deferred', 0)}")
            for reason in entry.get("deferred_reasons", []):
                print(f"    deferred: {reason}")
    return code


def _cmd_scenarios(args) -> int:
    from .control import SCENARIOS, run_scenario, scenario_json

    if args.list:
        for spec in SCENARIOS.values():
            print(f"{spec.name:<16} {spec.title}")
            print(f"{'':<16} {spec.description}")
        return 0
    names = (
        list(SCENARIOS) if args.scenario == "all" else [args.scenario]
    )
    code = 0
    for name in names:
        if name not in SCENARIOS:
            print(f"error: unknown scenario {name!r} "
                  f"(choose from {', '.join(SCENARIOS)})", file=sys.stderr)
            return 1
        result = run_scenario(
            name, seed=args.seed, epochs=args.epochs,
            breach_epochs=args.breach_epochs,
        )
        text = scenario_json(result)
        if args.verify_replay:
            again = scenario_json(run_scenario(
                name, seed=args.seed, epochs=args.epochs,
                breach_epochs=args.breach_epochs,
            ))
            if text != again:
                print(f"REPLAY MISMATCH: scenario {name!r} seed "
                      f"{args.seed} produced different trajectories",
                      file=sys.stderr)
                return 3
        if args.outdir:
            outdir = Path(args.outdir)
            outdir.mkdir(parents=True, exist_ok=True)
            path = outdir / f"{name}-seed{args.seed}.json"
            path.write_text(text)
        if args.json:
            sys.stdout.write(text)
        else:
            traj = result["trajectory"]
            reconfigs = sum(
                1 for row in traj if row["action"] == "reconfigure"
            )
            healed = sum(row["healed"] for row in traj)
            print(f"{name}: seed {result['seed']}, "
                  f"{result['epochs']} epochs — "
                  f"{'OK' if result['ok'] else 'BREACH'}")
            print(f"  availability {result['campaign']['availability']:.4f}, "
                  f"mean error {result['campaign']['mean_error']:.3e}")
            print(f"  reconfigurations {reconfigs}, healed {healed}, "
                  f"final overhead {traj[-1]['overhead']:.3f}")
            for obj, info in sorted(result["objects"].items()):
                if info["initial_ms"] != info["final_ms"]:
                    print(f"  {obj}: m {info['initial_ms']} "
                          f"-> {info['final_ms']}")
            if args.verify_replay:
                print("  replay verified: byte-identical trajectory")
            if result["breach_epochs"]:
                print(f"  SAFETY BREACH at epochs {result['breach_epochs']} "
                      f"(longest run {result['max_breach_run']})")
        if not result["ok"]:
            code = 4
    return code


def _cmd_scrub(args) -> int:
    from .healing import scrub_and_repair

    rapids, catalog = _open_workspace(args.workspace)
    try:
        scrub, repair = scrub_and_repair(
            rapids.cluster,
            catalog,
            ledger=rapids.ledger,
            max_fragments=args.max_fragments,
            repair=args.repair,
            dry_run=args.dry_run,
        )
        deficits = rapids.ledger.deficits()
    finally:
        catalog.close()
    healthy = scrub.clean or (
        args.repair
        and not args.dry_run
        and repair is not None
        and not repair.failures
        and not deficits
    )
    if args.report == "json":
        print(json.dumps(
            {
                "scrub": scrub.to_dict(),
                "repair": repair.to_dict() if repair is not None else None,
                "deficits": [e.describe() for e in deficits],
                "healthy": healthy,
            },
            indent=2, sort_keys=True,
        ))
    else:
        print(scrub.describe())
        if repair is not None:
            print(repair.describe())
        for e in deficits:
            print(f"  DEFICIT {e.describe()}")
        if scrub.damage and not args.repair:
            print("re-run with --repair to heal")
    return 0 if healthy else 2


def _cmd_estimate_bandwidth(args) -> int:
    records, _ = generate_transfer_logs(
        num_endpoints=args.endpoints, seed=args.seed
    )
    est = estimate_bandwidths(records)
    print(f"{len(records)} transfer records across {args.endpoints} endpoints")
    for ep in sorted(est):
        print(f"  {ep}: {est[ep] / GB:.2f} GB/s")
    return 0


def _serve_build_stack(td: Path, args):
    """A fresh in-memory archive stack plus its service front end."""
    import time as _time

    from .core import RAPIDS
    from .metadata import MetadataCatalog
    from .refactor import Refactorer
    from .service import ArchiveService, ManualClock, ServiceConfig
    from .storage import StorageCluster
    from .transfer import paper_bandwidth_profile

    cluster = StorageCluster(paper_bandwidth_profile(args.systems))
    catalog = MetadataCatalog(td / "meta")
    rapids = RAPIDS(cluster, catalog, refactorer=Refactorer(4), omega=0.3)
    clk = ManualClock()
    cfg = ServiceConfig(
        queue_capacity=args.queue_capacity,
        rate=args.rate,
        burst=args.rate,
        clock=_time.monotonic if args.threaded else clk,
    )
    return rapids, ArchiveService(rapids, config=cfg), clk


def _cmd_serve(args) -> int:
    """Run the archive service: idle threaded mode, or a drive round.

    Exit codes: 0 clean; 1 setup error; 4 cross-tenant starvation (a
    tenant had admitted requests but completed none); 5 unclean
    shutdown (requests left queued or unresolved after the drain).
    """
    import tempfile

    from .chaos import FaultInjector, FaultPlan
    from .service import (
        STANDARD_MIXES,
        ServiceRequest,
        drive_open_loop,
        drive_threaded,
        make_schedule,
        synthetic_field,
    )

    mix = STANDARD_MIXES.get(args.mix)
    if mix is None:
        print(f"error: unknown mix {args.mix!r} "
              f"(have: {', '.join(sorted(STANDARD_MIXES))})", file=sys.stderr)
        return 1

    with tempfile.TemporaryDirectory(prefix="rapids-serve-") as td_:
        rapids, svc, clk = _serve_build_stack(Path(td_), args)

        # Seed a couple of objects for the restore side of the mix.
        objects = []
        for i in range(2):
            name = f"serve/base/{i}"
            ticket = svc.submit(ServiceRequest(
                tenant="setup", op="prepare", name=name,
                data=synthetic_field(args.seed + i, 4096),
            ))
            svc.pump()
            res = ticket.result(timeout=0)
            if res.status != "ok":
                print(f"error: setup prepare failed: {res.error}",
                      file=sys.stderr)
                return 1
            objects.append(name)

        if args.outage:
            plan = FaultPlan.outages(args.outage, seed=args.seed)
            injector = FaultInjector(plan)
            svc.attach_injector(injector)
            rapids.attach_injector(injector)
            injector.apply_outages(rapids.cluster)

        if not args.drive:
            # Long-lived mode: the service thread until interrupted.
            svc.start()
            print(f"serving (queue={svc.config.queue_capacity}); "
                  "Ctrl-C to stop")
            try:
                while True:
                    import time as _time

                    _time.sleep(1.0)
            except KeyboardInterrupt:
                pass
            svc.stop()
            return 0

        schedule = make_schedule(
            mix, objects=objects, count=args.requests, seed=args.seed
        )
        clean = True
        if args.threaded:
            svc.start()
            report = drive_threaded(
                svc, schedule, mix_name=mix.name, seed=args.seed,
                time_scale=args.time_scale,
            )
            try:
                svc.stop()
            except (RuntimeError, OSError, TimeoutError) as exc:
                print(f"unclean shutdown: {exc}", file=sys.stderr)
                clean = False
        else:
            report = drive_open_loop(
                svc, clk, schedule, mix_name=mix.name, seed=args.seed,
                pump_interval=args.pump_interval,
            )
        if svc.queue.depth() != 0 or any(
            not t.done for t in svc._tickets.values()
        ):
            clean = False

        summary = report.summary()
        arrivals: dict[str, int] = {}
        for item in schedule:
            arrivals[item.tenant] = arrivals.get(item.tenant, 0) + 1
        shed_by_tenant: dict[str, int] = {}
        for tenant, _reason, _after in report.sheds:
            shed_by_tenant[tenant] = shed_by_tenant.get(tenant, 0) + 1
        starved = sorted(
            t for t, n in arrivals.items()
            if n - shed_by_tenant.get(t, 0) > 0
            and summary["by_tenant"].get(t, {}).get("completed", 0) == 0
        )

        out = {
            "summary": summary,
            "metrics": svc.snapshot(),
            "outages": sorted(args.outage or []),
            "starved_tenants": starved,
            "clean_shutdown": clean,
        }
        if args.emit_report:
            Path(args.emit_report).write_text(
                json.dumps(out, indent=2, sort_keys=True)
            )
        if args.json:
            print(json.dumps(out, indent=2, sort_keys=True))
        else:
            print(f"mix {mix.name!r}, seed {args.seed}: "
                  f"{summary['completed']} completed, "
                  f"{summary['shed']} shed, "
                  f"{summary['ops_per_s']:.1f} ops/s, "
                  f"p50 {summary['latency_p50_s'] * 1e3:.1f} ms, "
                  f"p99 {summary['latency_p99_s'] * 1e3:.1f} ms")
            for tenant in sorted(summary["by_tenant"]):
                bt = summary["by_tenant"][tenant]
                print(f"  {tenant}: {bt['completed']} done, "
                      f"p99 {bt['p99_s'] * 1e3:.1f} ms")
            if args.outage:
                print(f"  outages injected: {sorted(args.outage)}")
        if starved:
            print(f"STARVATION: tenants {starved} had admitted requests "
                  "but completed none", file=sys.stderr)
            return 4
        if not clean:
            print("UNCLEAN SHUTDOWN: requests left queued or unresolved",
                  file=sys.stderr)
            return 5
        return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rapids",
        description="RAPIDS: availability/accuracy/performance for "
        "geo-distributed scientific data (HPDC'23 reproduction)",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    r = sub.add_parser("refactor", help="refactor a .npy array")
    r.add_argument("input")
    r.add_argument("outdir")
    r.add_argument("--components", type=int, default=4)
    r.add_argument("--planes", type=int, default=32)
    r.add_argument("--no-correction", action="store_true")
    r.add_argument("--fast", action="store_true",
                   help="skip empirical error measurement")
    r.set_defaults(func=_cmd_refactor)

    c = sub.add_parser("reconstruct", help="rebuild an array from components")
    c.add_argument("indir")
    c.add_argument("output")
    c.add_argument("--upto", type=int, default=None,
                   help="use only the first N components")
    c.set_defaults(func=_cmd_reconstruct)

    i = sub.add_parser("info", help="describe a refactored object")
    i.add_argument("indir")
    i.set_defaults(func=_cmd_info)

    o = sub.add_parser("optimize-ft", help="solve the FT configuration model")
    o.add_argument("--systems", type=int, default=16)
    o.add_argument("--p", type=float, default=0.01)
    o.add_argument("--sizes", required=True,
                   help="comma-separated level sizes in bytes")
    o.add_argument("--errors", required=True,
                   help="comma-separated level errors")
    o.add_argument("--original-size", type=float, required=True)
    o.add_argument("--omega", type=float, default=0.25)
    o.set_defaults(func=_cmd_optimize_ft)

    ln = sub.add_parser(
        "lint",
        help="run the rapidslint static analyzer over source paths",
    )
    ln.add_argument("paths", nargs="*", default=["src"],
                    help="files or directories to lint (default: src)")
    ln.add_argument("--select", default=None,
                    help="comma-separated rule ids to run (default: all)")
    ln.add_argument("--format", default="text", choices=["text", "json"])
    ln.add_argument("--list-rules", action="store_true",
                    help="print the rule registry and exit")
    ln.add_argument("--changed", nargs="?", const="HEAD", default=None,
                    metavar="BASE",
                    help="lint only the files under the given paths "
                         "that changed vs the given git ref (default HEAD)")
    ln.set_defaults(func=_cmd_lint)

    ch = sub.add_parser(
        "chaos",
        help="run a seeded fault-injection round (prepare → inject → restore)",
    )
    ch.add_argument("--seed", type=int, default=None,
                    help="plan seed (default 0; overrides a loaded plan's)")
    ch.add_argument("--plan", default=None,
                    help="JSON fault plan to replay (default: a random plan)")
    ch.add_argument("--emit-plan", default=None,
                    help="write the effective plan to this JSON file")
    ch.add_argument("--systems", type=int, default=16)
    ch.add_argument("--intensity", type=float, default=0.15,
                    help="random-plan fault density in [0, 1]")
    ch.add_argument("--size", type=int, default=33,
                    help="edge length of the synthetic 3-D test field")
    ch.add_argument("--strategy", default="naive",
                    choices=["random", "naive", "optimized"])
    ch.add_argument("--verify-replay", action="store_true",
                    help="run the round twice and require identical outcomes")
    ch.add_argument("--reconfigure", action="store_true",
                    help="run one control-loop step (observe -> "
                         "re-solve -> live migrate) between outage and "
                         "restore; the outcome records what it did")
    ch.add_argument("--json", action="store_true",
                    help="print the outcome as JSON")
    ch.add_argument("--workspace", default=None,
                    help="inflict the plan's damage at rest on this "
                         "workspace (instead of a synthetic round); heal "
                         "it back with `rapids scrub --repair`")
    ch.set_defaults(func=_cmd_chaos)

    sc = sub.add_parser(
        "scrub",
        help="verify a workspace's fragments at rest against the "
             "durability ledger, optionally repairing damage",
    )
    sc.add_argument("--workspace", default="rapids-ws")
    sc.add_argument("--repair", action="store_true",
                    help="regenerate damaged fragments after the sweep")
    sc.add_argument("--dry-run", action="store_true",
                    help="plan repairs without writing anything")
    sc.add_argument("--max-fragments", type=int, default=None,
                    help="rate limit: stop after about this many fragments "
                         "and persist a cursor to resume from next run")
    sc.add_argument("--report", choices=["text", "json"], default="text",
                    help="output format (default: text)")
    sc.set_defaults(func=_cmd_scrub)

    rc = sub.add_parser(
        "reconfigure",
        help="re-solve a workspace's FT configurations exactly and "
             "migrate changed objects live",
    )
    rc.add_argument("--workspace", default="rapids-ws")
    rc.add_argument("--object", default=None,
                    help="reconfigure only this object (default: all)")
    rc.add_argument("--omega", type=float, default=None,
                    help="new storage-overhead budget (default: keep)")
    rc.add_argument("--p", type=float, default=None,
                    help="new per-system outage probability (default: keep)")
    rc.add_argument("--dry-run", action="store_true",
                    help="plan only; do not migrate")
    rc.add_argument("--json", action="store_true")
    rc.set_defaults(func=_cmd_reconfigure)

    sn = sub.add_parser(
        "scenarios",
        help="run the deterministic chaos-campaign scenario suite "
             "(control loop under drift)",
    )
    sn.add_argument("--scenario", default="all",
                    help="scenario name, or 'all' (default)")
    sn.add_argument("--list", action="store_true",
                    help="list the scenario catalog and exit")
    sn.add_argument("--seed", type=int, default=7)
    sn.add_argument("--epochs", type=int, default=None,
                    help="override the scenario's epoch count")
    sn.add_argument("--outdir", default=None,
                    help="write each trajectory JSON artifact here")
    sn.add_argument("--breach-epochs", type=int, default=0,
                    help="max tolerated consecutive safety-breach epochs "
                         "(default 0: any breach fails)")
    sn.add_argument("--verify-replay", action="store_true",
                    help="run each scenario twice and require "
                         "byte-identical trajectories")
    sn.add_argument("--json", action="store_true",
                    help="print the trajectory JSON to stdout")
    sn.set_defaults(func=_cmd_scenarios)

    sv = sub.add_parser(
        "serve",
        help="run the multi-tenant archive service (idle threaded mode, "
             "or --drive: a seeded mixed-tenant traffic round with "
             "starvation/shutdown checks)",
    )
    sv.add_argument("--drive", action="store_true",
                    help="drive a synthetic open-loop traffic round and "
                         "exit (4 = cross-tenant starvation, 5 = unclean "
                         "shutdown)")
    sv.add_argument("--mix", default="balanced",
                    help="tenant mix name: balanced | hog")
    sv.add_argument("--requests", type=int, default=60,
                    help="arrivals to schedule in drive mode")
    sv.add_argument("--seed", type=int, default=7)
    sv.add_argument("--systems", type=int, default=8)
    sv.add_argument("--outage", type=int, action="append", default=None,
                    metavar="SID",
                    help="inject an outage of this backend system id "
                         "(repeatable)")
    sv.add_argument("--threaded", action="store_true",
                    help="drive the started service thread on the wall "
                         "clock instead of the deterministic inline pump")
    sv.add_argument("--time-scale", type=float, default=0.1,
                    help="threaded mode: scale scheduled arrival times")
    sv.add_argument("--pump-interval", type=int, default=3,
                    help="deterministic mode: arrivals per executed "
                         "request (higher = more overload)")
    sv.add_argument("--queue-capacity", type=int, default=32)
    sv.add_argument("--rate", type=float, default=10_000.0,
                    help="per-tenant token-bucket rate (and burst)")
    sv.add_argument("--emit-report", default=None,
                    help="write the drive report JSON to this file")
    sv.add_argument("--json", action="store_true",
                    help="print the drive report as JSON")
    sv.set_defaults(func=_cmd_serve)

    b = sub.add_parser("estimate-bandwidth",
                       help="synthesize Globus logs and estimate bandwidths")
    b.add_argument("--endpoints", type=int, default=16)
    b.add_argument("--seed", type=int, default=2014)
    b.set_defaults(func=_cmd_estimate_bandwidth)

    pp = sub.add_parser(
        "prepare",
        help="refactor + protect a .npy array into a persistent workspace",
    )
    pp.add_argument("input")
    pp.add_argument("name", help="data object name, e.g. nyx:temperature")
    pp.add_argument("--workspace", default="rapids-ws")
    pp.add_argument("--systems", type=int, default=16)
    pp.add_argument("--omega", type=float, default=0.25)
    pp.add_argument("--parallelism", default="auto",
                    choices=["auto", "process", "thread"],
                    help="execution mode (auto: process pool for inputs "
                         "of 32 MiB and up, threads otherwise)")
    pp.add_argument("--workers", type=int, default=None,
                    help="worker processes for --parallelism=process "
                         "(default: affinity-aware)")
    pp.add_argument("--tile-planes", type=int, default=None,
                    help="axis-0 planes per tile in process mode "
                         "(default: ~8 MiB tiles)")
    pp.set_defaults(func=_cmd_prepare)

    rr = sub.add_parser(
        "restore", help="restore an object from a workspace under failures"
    )
    rr.add_argument("name")
    rr.add_argument("output")
    rr.add_argument("--workspace", default="rapids-ws")
    rr.add_argument("--failed", default="",
                    help="comma-separated failed system ids")
    rr.add_argument("--strategy", default="naive",
                    choices=["random", "naive", "optimized"],
                    help="which systems serve each level: fastest-first "
                    "(naive) or the exact §3.3 plan (optimized)")
    rr.add_argument("--target-error", type=float, default=None)
    rr.add_argument("--parallelism", default="auto",
                    choices=["auto", "process", "thread"],
                    help="reconstruction execution mode")
    rr.add_argument("--workers", type=int, default=None,
                    help="worker processes for --parallelism=process")
    rr.set_defaults(func=_cmd_restore)

    s = sub.add_parser("simulate", help="run a failure-campaign simulation")
    s.add_argument("--systems", type=int, default=16)
    s.add_argument("--p-fail", type=float, default=0.002)
    s.add_argument("--p-repair", type=float, default=0.2)
    s.add_argument("--ms", default="8,5,4,2")
    s.add_argument("--errors", default="4e-3,5e-4,6e-5,1e-7")
    s.add_argument("--epochs", type=int, default=10_000)
    s.add_argument("--requests", type=int, default=1)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=_cmd_simulate)

    v = sub.add_parser("validate",
                       help="Monte Carlo check of the Eq. 5 expected error")
    v.add_argument("--systems", type=int, default=16)
    v.add_argument("--p", type=float, default=0.05)
    v.add_argument("--ms", default="8,5,4,2")
    v.add_argument("--errors", default="4e-3,5e-4,6e-5,1e-7")
    v.add_argument("--trials", type=int, default=100_000)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=_cmd_validate)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

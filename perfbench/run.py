"""The benchmark's one command.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--cycles N] [--trace [0|1]] [--smoke] [--out FILE]

With ``--workload`` it runs one pass of one workload and ends its output
with the one-line JSON result the benchmark driver reads (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).
Without it, it runs all four workloads — untraced, then traced as well
when ``--trace`` is given — prints every metric by name with its unit and
writes a run record under ``perfbench/results/``.

Every pass runs in a fresh subprocess (``worker.py``) with a pinned
environment and a temporary workspace inside ``perfbench/.work``, which
is removed on exit, also on failure.  The exit code is non-zero when any
operation failed or any output failed verification.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 20260927
#: A pass that has not ended by now is killed (the driver allows 180 s).
PASS_TIMEOUT_S = 170
#: One BLAS/OpenMP thread per process, so the only parallelism is what
#: the library starts itself; a fixed hash seed, so dict and set orders
#: do not vary between runs.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_pass(workload: str, *, seed: int, seconds: float, cycles: int | None,
             trace: bool, smoke: bool, spans: Path | None = None) -> dict:
    """Run one pass of one workload in a subprocess; returns its result."""
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    (workdir / "tmp").mkdir()
    env = {
        **os.environ, **PINNED_ENV,
        "PYTHONPATH": str(ROOT / "src"),
        # procpipe spools through tempfile: keep that inside the workspace
        "TMPDIR": str(workdir / "tmp"),
    }
    cfg = {
        "workload": workload, "seed": seed, "seconds": seconds, "cycles": cycles,
        "trace": trace, "smoke": smoke, "workdir": str(workdir),
        "spans": str(spans) if spans else None,
    }
    # Let the dirty pages earlier passes left behind reach the disk now,
    # not in the middle of this pass's file creates.
    os.sync()
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
        stdout=subprocess.PIPE, env=env, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    finally:
        # The worker leads its own process group: whatever it started
        # (pool workers) goes with it, whether it ended or not.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run's workspace is still there
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: worker exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - started
    return result


def driver_line(result: dict, bench: dict) -> str:
    """The one-line JSON result of a pass, as the driver's contract has it."""
    if result["trace"]:
        declared, values = bench["per_layer"], result["layers"]
    else:
        declared, values = bench["end_to_end"], result["e2e"]
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        for m in declared
    }
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def print_pass(result: dict, bench: dict) -> None:
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    kind = "traced" if result["trace"] else "untraced"
    flag = "  [SMOKE: numbers not comparable]" if result["smoke"] else ""
    if result["trace"]:
        kind += f" (then {result['traced_cycles']} cycles with wrappers)"
    print(f"== {result['workload']}  seed={result['seed']}  {kind}  "
          f"{result['cycles']} cycles, {result['measured_s']:.1f} s measured{flag}")
    for name, value in result["e2e"].items():
        print(f"  {name:34s} {value:14.6g} {units.get(name, '')}")
    print(f"  {'failed / attempted operations':34s} "
          f"{result['failed']:>7d} / {result['attempted']}")
    for op, s in sorted(result["ops"].items()):
        line = f"  op {op:18s} n={s['n']:<5d} p50={1e3 * s['p50']:10.3f} ms"
        if "hi" in s:
            line += f"  p{s['hi_pct']:.0f}={1e3 * s['hi']:10.3f} ms"
        print(line)
    for name, value in sorted(result["layers"].items()):
        print(f"  {name:34s} {value:14.6g} {units.get(name, '')}")
    for name, value in result["layer_self_s"].items():
        print(f"  self time {name:24s} {value:14.6g} s/cycle")
    for what in result["failures"]:
        print(f"  FAILED: {what}")
    sys.stdout.flush()


def run_record(seed: int) -> dict:
    """Where and on what this run was made."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "nogit"
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": sha, "seed": seed, "nproc": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu, "pinned_env": PINNED_ENV,
    }


def main(argv=None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"],
                    help="measured time per pass (default: run_seconds)")
    ap.add_argument("--cycles", type=int,
                    help="measure exactly this many cycles instead of --seconds")
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                    choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, a cycle or so: exercises everything, measures nothing")
    ap.add_argument("--out", type=Path, help="where to write the run record")
    args = ap.parse_args(argv)
    common = dict(seed=args.seed, seconds=args.seconds, cycles=args.cycles,
                  smoke=args.smoke)
    if args.workload:
        result = run_pass(args.workload, trace=bool(args.trace), **common)
        print_pass(result, bench)
        print(driver_line(result, bench))
        return 0 if result["failed"] == 0 else 1

    record = run_record(args.seed)
    tag = "-smoke" if args.smoke else ""
    out = args.out or HERE / "results" / f"{record['git_sha']}-{args.seed}{tag}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    record["smoke"] = args.smoke
    record["passes"] = []
    for name in names:
        for trace in ([False, True] if args.trace else [False]):
            spans = out.with_name(f"{out.stem}-{name}.spans.jsonl") if trace else None
            result = run_pass(name, trace=trace, spans=spans, **common)
            print_pass(result, bench)
            record["passes"].append(result)
    out.write_text(json.dumps(record, indent=1))
    failed = sum(r["failed"] for r in record["passes"])
    attempted = sum(r["attempted"] for r in record["passes"])
    print(f"run record: {out}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

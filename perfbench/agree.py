"""The repeatability gate: do two sets of runs of the same code agree?

    python3 perfbench/agree.py [--runs N] [--seed S] [--seconds S]

Runs the benchmark twice over the same seeds and fails, naming the
metric and the workload, when

* the second set's median of an end-to-end metric is worse than the
  first's by more than the metric's bound in ``BENCHMARK.json``;
* with ``--runs`` of 4 or more (each run on its own seed, as the
  benchmark driver does it): a set's interquartile spread of a metric,
  as a share of its median, exceeds the bound (``setup_s`` excepted);
* a deterministic number differs at all between the sets: the schedule
  digest, ``stored_bytes_per_user_byte``, ``restore_rel_linf_error`` and
  every per-layer count, all taken from a traced pass over a fixed
  number of cycles so that both sets do identical work.

Run this before trusting a small difference between two commits.
"""

from __future__ import annotations

import argparse
import statistics
import sys

import run
import stats

#: Cycles of the fixed-work traced pass (a cycle of service_small is one
#: request).
EXACT_CYCLES = {
    "bulk_archive": 3, "midsize_thread": 3, "service_small": 300, "heal_repair": 3,
}
#: Per-layer units that mark a count of work done, which must repeat.
COUNT_UNITS = ("count", "B")
#: Counts that depend on how threads interleave, not on the work asked
#: for: how many arena segments are live at once; whether a duplicate
#: meets its original in flight; and the catalog size, because two
#: concurrent restores race on the read-modify-write of a system's
#: bandwidth history (``MetadataCatalog.record_throughput``).
TIMING_DEPENDENT = {
    "procpipe.arena_peak_bytes", "service.coalesced", "metadata.wal_bytes",
}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    if first == 0:
        return 0.0 if second == 0 else float("inf")
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def measure_set(bench: dict, args) -> dict:
    out = {}
    for w in (w["name"] for w in bench["workloads"]):
        timed = [
            run.run_pass(w, seed=args.seed + i, seconds=args.seconds, cycles=None,
                         trace=False, smoke=False)
            for i in range(args.runs)
        ]
        exact = run.run_pass(
            w, seed=args.seed, seconds=args.seconds, trace=True, smoke=False,
            cycles=EXACT_CYCLES[w],
        )
        out[w] = {"timed": timed, "exact": exact}
        print(f"  {w}: {args.runs} timed run(s) + 1 fixed-work traced run", flush=True)
    return out


def compare(bench: dict, first: dict, second: dict, runs: int) -> list[str]:
    problems = []
    for w in first:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = [r["e2e"][name] for r in first[w]["timed"]]
            b = [r["e2e"][name] for r in second[w]["timed"]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            gap = worse_by(med_a, med_b, m["better"])
            line = f"{w:15s} {name:27s} {med_a:12.5g} -> {med_b:12.5g} ({gap:+.1%})"
            if runs >= 4:
                spreads = [stats.spread(a), stats.spread(b)]
                line += "  spread " + " ".join(f"{s:.1%}" for s in spreads)
                if name != "setup_s" and max(spreads) > bound:
                    problems.append(f"{w}: spread of {name} is {max(spreads):.1%}, "
                                    f"bound {bound:.0%}")
            print(line)
            if gap > bound:
                problems.append(f"{w}: {name} got worse by {gap:.1%}, bound {bound:.0%}")
        ea, eb = first[w]["exact"], second[w]["exact"]
        failed = sum(r["failed"] for r in
                     first[w]["timed"] + second[w]["timed"] + [ea, eb])
        if failed:
            problems.append(f"{w}: {failed} failed operations")
        exact = {
            "digest": (ea["digest"], eb["digest"]),
            "restore_rel_linf_error": (
                ea["restore_rel_linf_error"], eb["restore_rel_linf_error"]),
            "stored_bytes_per_user_byte": (
                ea["e2e"]["stored_bytes_per_user_byte"],
                eb["e2e"]["stored_bytes_per_user_byte"]),
        }
        for m in bench["per_layer"]:
            if m["unit"] in COUNT_UNITS and m["name"] not in TIMING_DEPENDENT:
                exact[m["name"]] = (ea["layers"].get(m["name"], 0.0),
                                    eb["layers"].get(m["name"], 0.0))
        for name, (x, y) in exact.items():
            if x != y:
                problems.append(f"{w}: {name} must repeat exactly: {x} != {y}")
    return problems


def main(argv=None) -> int:
    bench = run.load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=1,
                    help="timed runs per workload per set (10: as the driver)")
    ap.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args(argv)
    print("first set")
    first = measure_set(bench, args)
    print("second set")
    second = measure_set(bench, args)
    problems = compare(bench, first, second, args.runs)
    for p in problems:
        print(f"DISAGREE: {p}")
    print("agree" if not problems else f"{len(problems)} disagreement(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

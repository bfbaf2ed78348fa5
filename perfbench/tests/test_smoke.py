"""End to end: the one command, all four workloads, both passes, scaled down."""

import json
import subprocess
import sys
import time

import run


def test_smoke_run_exercises_every_workload_and_metric(tmp_path):
    out = tmp_path / "record.json"
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--smoke", "--trace",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert time.perf_counter() - started < 60
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
    assert "SMOKE: numbers not comparable" in proc.stdout

    bench = run.load_benchmark()
    record = json.loads(out.read_text())
    assert record["smoke"] and record["pinned_env"] == run.PINNED_ENV
    passes = {(p["workload"], p["trace"]): p for p in record["passes"]}
    assert set(passes) == {(w["name"], t) for w in bench["workloads"]
                           for t in (False, True)}
    for (name, traced), p in passes.items():
        assert p["failed"] == 0 and p["attempted"] >= 1
        line = json.loads(run.driver_line(p, bench))
        declared = bench["per_layer"] if traced else bench["end_to_end"]
        assert set(line["metrics"]) == {m["name"] for m in declared}
        if traced:
            assert (tmp_path / f"record-{name}.spans.jsonl").stat().st_size > 0
        else:
            assert all(line["metrics"][m["name"]]["value"] > 0 for m in declared)
    # every declared per-layer metric is produced by some workload (a
    # name no workload produces would read 0 everywhere, unnoticed)
    produced = {k for (_, traced), p in passes.items() if traced for k in p["layers"]}
    assert produced >= {m["name"] for m in bench["per_layer"]}
    # the layers each workload is built to stress, and to leave alone
    assert passes[("heal_repair", True)]["layers"]["refactor.calls"] == 0
    assert passes[("heal_repair", True)]["layers"]["ec.repair_calls"] > 0
    assert passes[("midsize_thread", True)]["layers"]["ec.decode_with_erasures"] > 0
    assert passes[("bulk_archive", True)]["layers"]["procpipe.num_tiles"] > 1
    assert passes[("service_small", True)]["layers"]["service.journal_s"] > 0
    # the workspace is gone
    assert not (run.HERE / ".work").exists()

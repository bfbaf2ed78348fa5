import pytest

import run
import worker
import workloads


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_fixes_the_schedule(name, tmp_path):
    def digest(seed):
        return workloads.make_workload(name, seed, tmp_path, smoke=True).schedule_digest()

    assert digest(7) == digest(7)
    assert digest(7) != digest(8)


def test_service_schedule_mix_and_duplicates():
    reqs = workloads.service_schedule(11, 2000)
    restores = [r for r in reqs if r["op"] == "restore"]
    prepares = [r for r in reqs if r["op"] == "prepare"]
    assert 0.65 < len(restores) / len(reqs) < 0.75
    assert all(1 << 10 <= r["size"] <= 1 << 16 for r in prepares)
    first_use = {}
    for i, r in enumerate(reqs):
        if r["expect"] == "cached":
            # a duplicate repeats an earlier keyed prepare, far enough back
            assert i - first_use[r["key"]] >= workloads.DUPLICATE_GAP
        elif r.get("key"):
            first_use[r["key"]] = i
    assert any(r["expect"] == "cached" for r in reqs)


def test_budget_stops_on_cycles_or_on_time():
    assert [workloads.Budget(0.0, 3).more(n) for n in range(5)] == [
        True, True, True, False, False]
    timed = workloads.Budget(1e-9)
    assert timed.more(0)          # at least one cycle
    assert not timed.more(1)      # another would overrun


def _smoke_cfg(name, workdir, trace=False):
    (workdir / "tmp").mkdir()
    return {"workload": name, "seed": 5, "seconds": 1.0, "cycles": None,
            "trace": trace, "smoke": True, "workdir": str(workdir), "spans": None}


def test_corrupted_restore_is_counted_and_fails_the_command(tmp_path, monkeypatch, capsys):
    from repro.core.pipeline import RAPIDS

    real = RAPIDS.restore

    def corrupting(self, *args, **kwargs):
        report = real(self, *args, **kwargs)
        report.data.flat[0] += 1.0
        return report

    monkeypatch.setattr(RAPIDS, "restore", corrupting)
    result = worker.run_pass(_smoke_cfg("midsize_thread", tmp_path), 0.0)
    assert result["failed"] > 0 and result["failures"]

    monkeypatch.setattr(run, "run_pass", lambda *a, **k: result)
    code = run.main(["--workload", "midsize_thread", "--smoke"])
    assert code != 0
    assert '"correct": false' in capsys.readouterr().out.splitlines()[-1]

"""Chaos-campaign scenario suite: determinism, safety, and the
campaign's failure-model / step-hook protocols."""

import json
import math

import pytest

from repro.cli import main
from repro.control import SCENARIOS, run_scenario, scenario_json
from repro.control.scenarios import _failure_model, _longest_run
from repro.sim import CampaignConfig, run_campaign
from repro.storage.failures import CorrelatedFailureModel, MaintenanceSchedule


def config(**kw):
    base = dict(
        n=8, p_fail=0.05, p_repair=0.5, ms=(4, 3, 2, 1),
        errors=(1e-2, 1e-4, 1e-6, 0.0), epochs=50,
    )
    base.update(kw)
    return CampaignConfig(**base)


class TestCampaignProtocols:
    def test_markov_path_unchanged_by_trajectory_flag(self):
        """Recording a trajectory must not perturb the RNG stream."""
        a = run_campaign(config(), seed=11)
        b = run_campaign(config(), seed=11, record_trajectory=True)
        assert (a.requests, a.error_sum, a.blackout, a.levels_histogram) == (
            b.requests, b.error_sum, b.blackout, b.levels_histogram
        )
        assert len(b.trajectory) == 50 and not a.trajectory

    def test_schedule_windows_become_epoch_windows(self):
        sched = MaintenanceSchedule()
        sched.add_window(2, 10, 20)
        sched.add_window(5, 15, 25)
        assert sched.down_at(5) == []
        assert sched.down_at(12) == [2]
        assert sched.down_at(17) == [2, 5]
        assert sched.down_at(20) == [5]  # windows are half-open
        assert sched.down_at(22) == [5]
        stats = run_campaign(
            config(epochs=30),
            failure_model=lambda epoch, n: sched.down_at(epoch),
        )
        assert stats.max_concurrent_failures == 2

    def test_correlated_model_draws_fresh_each_epoch(self):
        def mk():
            model = CorrelatedFailureModel(
                [[0, 1], [2, 3], [4, 5], [6, 7]],
                p_region=0.2, p_single=0.05, seed=9,
            )
            return lambda epoch, n: model.sample_failed_ids(n)

        a = run_campaign(config(), failure_model=mk(), record_trajectory=True)
        b = run_campaign(config(), failure_model=mk(), record_trajectory=True)
        assert a.trajectory == b.trajectory
        assert a.max_concurrent_failures >= 2  # a region went down together

    def test_callable_failure_model(self):
        stats = run_campaign(
            config(epochs=10),
            failure_model=lambda epoch, n: [0, 1] if epoch == 4 else [],
            record_trajectory=True,
        )
        assert [r["failed"] for r in stats.trajectory].count(2) == 1
        assert stats.max_concurrent_failures == 2

    def test_ids_are_deduplicated_and_sorted(self):
        seen = []
        run_campaign(
            config(epochs=1),
            failure_model=lambda epoch, n: [5, 1.0, 5, 3],
            step_hook=lambda e, failed, ms: seen.append(failed),
        )
        assert seen == [[1, 3, 5]]

    def test_step_hook_reconfigures_mid_campaign(self):
        def hook(epoch, failed, ms):
            return (5, 4, 3, 2) if epoch == 20 else None

        stats = run_campaign(
            config(), failure_model=lambda e, n: [],
            step_hook=hook, record_trajectory=True,
        )
        assert stats.trajectory[19]["ms"] == [4, 3, 2, 1]
        assert stats.trajectory[20]["ms"] == [5, 4, 3, 2]
        assert stats.trajectory[49]["ms"] == [5, 4, 3, 2]

    def test_step_hook_bad_ms_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(
                config(epochs=2),
                failure_model=lambda e, n: [],
                step_hook=lambda e, f, ms: (3, 3, 2, 1),
            )
        with pytest.raises(ValueError):
            run_campaign(
                config(epochs=2),
                failure_model=lambda e, n: [],
                step_hook=lambda e, f, ms: (4, 3, 2),
            )


#: Each scenario's down systems by epoch at seed 7, 48 epochs (epochs
#: not listed have none).
_PINNED_OUTAGES = {
    "region-loss": {e: [0, 1, 2] for e in range(12, 24)},
    "bandwidth-drift": {},
    "flash-crowd": {},
    "correlated": {
        8: [4, 5], 10: [1, 6, 7], 12: [3, 6, 7], 14: [4, 5], 17: [0, 1],
        20: [6, 7], 23: [6, 7], 27: [4], 30: [2, 5, 7], 36: [5], 37: [6],
        44: [2, 3],
    },
}


def _campaign_outages(name: str, seed: int, epochs: int) -> list[list[int]]:
    """The ``failed`` list each epoch of ``name``'s campaign hands its hook."""
    seen: list[list[int]] = []
    run_campaign(
        config(epochs=epochs),
        seed=seed,
        failure_model=_failure_model(SCENARIOS[name], seed),
        step_hook=lambda epoch, failed, ms: seen.append(failed),
    )
    return seen


class TestScenarioOutages:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_outages_are_pinned(self, name):
        pinned = _PINNED_OUTAGES[name]
        expected = [pinned.get(epoch, []) for epoch in range(48)]
        assert _campaign_outages(name, 7, 48) == expected


class TestLongestRun:
    def test_runs(self):
        assert _longest_run([]) == 0
        assert _longest_run([4]) == 1
        assert _longest_run([1, 2, 3, 7, 8]) == 3
        assert _longest_run([1, 3, 5]) == 1


class TestScenarioSuite:
    def test_catalog_shape(self):
        assert set(SCENARIOS) == {
            "region-loss", "bandwidth-drift", "flash-crowd", "correlated",
        }
        for spec in SCENARIOS.values():
            assert spec.epochs >= 16

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_byte_identical_across_runs(self, name):
        """The determinism contract: same seed, same bytes."""
        a = scenario_json(run_scenario(name, seed=7, epochs=12))
        b = scenario_json(run_scenario(name, seed=7, epochs=12))
        assert a == b

    def test_seed_changes_artifact(self):
        a = scenario_json(run_scenario("correlated", seed=7, epochs=12))
        b = scenario_json(run_scenario("correlated", seed=8, epochs=12))
        assert a != b

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_no_safety_breaches(self, name):
        res = run_scenario(name, seed=7, epochs=16)
        assert res["ok"] is True
        assert res["breach_epochs"] == []
        assert res["max_breach_run"] == 0
        assert res["campaign"]["availability"] == 1.0

    def test_flash_crowd_promotes_hot_object(self):
        res = run_scenario("flash-crowd", seed=7)
        before = res["objects"]["primary"]["initial_ms"]
        after = res["objects"]["primary"]["final_ms"]
        assert sum(after) > sum(before), "hot object must gain parity"
        reconfigs = [
            e for e in res["operator_events"] if e["action"] == "reconfigure"
        ]
        assert reconfigs

    def test_region_loss_heals(self):
        res = run_scenario("region-loss", seed=7)
        assert [row["failed"] for row in res["trajectory"]] == (
            _campaign_outages("region-loss", 7, 48)
        )
        assert sum(e.get("healed", 0) for e in res["operator_events"]) >= 1

    def test_drift_recovers_by_staleness_decay_alone(self):
        """Once the probes stop (epoch 32), nothing feeds the tracker:
        each idle epoch shrinks its error by exactly exp(-1/horizon)."""
        spec = SCENARIOS["bandwidth-drift"]
        res = run_scenario(spec.name, seed=7, epochs=48)
        err = [row["tracker_error"] for row in res["trajectory"]]
        decay = math.exp(-1 / spec.tracker_horizon)
        assert err[32] > 0
        for epoch in range(33, 48):
            assert err[epoch] == pytest.approx(err[epoch - 1] * decay, rel=1e-9)

    def test_artifact_is_json_safe(self):
        res = run_scenario("bandwidth-drift", seed=7, epochs=12)
        parsed = json.loads(scenario_json(res))
        assert parsed == res
        row = parsed["trajectory"][0]
        for key in ("epoch", "failed", "action", "ms", "overhead", "breaches"):
            assert key in row


class TestScenarioCLI:
    def test_list(self, capsys):
        assert main(["scenarios", "--list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_unknown_scenario(self, capsys):
        assert main(["scenarios", "--scenario", "nope"]) == 1
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_with_replay_verification(self, tmp_path, capsys):
        rc = main([
            "scenarios", "--scenario", "flash-crowd", "--epochs", "12",
            "--seed", "7", "--verify-replay", "--json",
            "--outdir", str(tmp_path),
        ])
        assert rc == 0
        res = json.loads(capsys.readouterr().out)
        assert res["ok"] is True and res["scenario"] == "flash-crowd"
        artifact = tmp_path / "flash-crowd-seed7.json"
        assert artifact.exists()
        assert json.loads(artifact.read_text()) == res

    def test_human_summary(self, capsys):
        rc = main([
            "scenarios", "--scenario", "correlated", "--epochs", "12",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "correlated" in out and "OK" in out
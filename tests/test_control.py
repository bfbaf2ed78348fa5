"""Control-plane tests: warm starts, drift detection, live migration.

The two load-bearing guarantees proven here:

* **Warm-start dominance** (property-based): re-solving the FT MINLP
  seeded from an incumbent configuration is never worse than the
  (repaired) incumbent under the drifted parameters, and never worse
  than a cold solve when the evaluation budget allows both.
* **Migration safety**: at every intermediate step of a live
  re-encoding migration — probed via the migrator's checkpoint seam,
  including with up to ``m_j`` concurrent system failures injected
  mid-migration — every level of the object stays recoverable.
"""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.control import (
    DriftPolicy,
    LiveMigrator,
    ReconfigOperator,
    level_recoverable,
    safety_breaches,
)
from repro.control.observer import AvailabilityEstimator, hot_objects, p_drift
from repro.core import RAPIDS, FTProblem, heuristic, repair_configuration, warm_start
from repro.formats import crc32
from repro.metadata import MetadataCatalog, level_storage_name
from repro.refactor import Refactorer
from repro.storage import StorageCluster, StorageSystem, StoredFragment
from repro.transfer import paper_bandwidth_profile

#: Prepare keywords cutting ``smooth_field()``'s 17 planes into 4 axis-0
#: tiles, run inline — the multi-tile layout every object of 32 MiB or
#: more gets, at test size.
TILED = dict(parallelism="process", processes=1, tile_planes=5)
LAYOUTS = {"one-tile": {}, "tiled": TILED}


def smooth_field(n=17, seed=0):
    rng = np.random.default_rng(seed)
    ax = np.meshgrid(*[np.linspace(0, 1, n)] * 3, indexing="ij")
    u = np.zeros([n] * 3)
    for k in (1, 2, 4):
        ph = rng.uniform(0, 2 * np.pi, 3)
        u += (
            np.sin(2 * np.pi * k * ax[0] + ph[0])
            * np.cos(2 * np.pi * k * ax[1] + ph[1])
            * np.sin(2 * np.pi * k * ax[2] + ph[2])
            / k
        )
    return u.astype(np.float32)


@pytest.fixture
def stack(tmp_path):
    cluster = StorageCluster(paper_bandwidth_profile(16))
    catalog = MetadataCatalog(tmp_path / "meta")
    rapids = RAPIDS(
        cluster, catalog, refactorer=Refactorer(4, workers=1),
        omega=0.25, ec_workers=1,
    )
    yield rapids
    catalog.close()


@pytest.fixture(params=sorted(LAYOUTS))
def layout(request):
    """Prepare keywords of each stored layout: one tile, four tiles."""
    return LAYOUTS[request.param]


# -- problem/incumbent strategies for the property suite -------------------


@st.composite
def problems(draw):
    n = draw(st.integers(6, 16))
    l = draw(st.integers(2, 4))
    # Sizes grow geometrically, errors shrink: the paper's shape.
    s0 = draw(st.floats(1e3, 1e6))
    growth = draw(st.floats(1.5, 6.0))
    sizes = tuple(s0 * growth**j for j in range(l))
    errors = tuple(10.0 ** -(1 + 2 * j) for j in range(l))
    original = sizes[-1] * draw(st.floats(1.0, 4.0))
    omega = draw(st.floats(0.05, 2.0))
    if draw(st.booleans()):
        p = draw(st.floats(1e-3, 0.3))
    else:
        p = tuple(
            draw(st.floats(1e-3, 0.4)) for _ in range(n)
        )
    try:
        return FTProblem(
            n=n, p=p, sizes=sizes, errors=errors,
            original_size=original, omega=omega,
        )
    except ValueError:
        assume(False)


@st.composite
def incumbents(draw, n=16, l=4):
    """An arbitrary (possibly infeasible) parity ladder."""
    return [draw(st.integers(1, n + 2)) for _ in range(l)]


class TestRepairConfiguration:
    @given(problems(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_repair_is_feasible_or_none(self, problem, data):
        ms = data.draw(incumbents(n=problem.n, l=problem.l))
        out = repair_configuration(problem, ms)
        if out is not None:
            assert problem.valid(out)

    @given(problems())
    @settings(max_examples=60, deadline=None)
    def test_feasible_incumbent_unchanged(self, problem):
        """An already-feasible incumbent survives repair untouched."""
        try:
            inc = heuristic(problem).ms
        except ValueError:
            assume(False)
        assert repair_configuration(problem, inc) == inc

    def test_wrong_level_count_rejected(self):
        problem = FTProblem(
            n=8, p=0.01, sizes=(1e3, 1e4), errors=(1e-2, 1e-4),
            original_size=2e4, omega=1.0,
        )
        assert repair_configuration(problem, [3, 2, 1]) is None


class TestWarmStartDominance:
    @given(problems(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_never_worse_than_repaired_incumbent(self, problem, data):
        """The reconfiguration loop's core guarantee: under drifted
        parameters, the warm solution is never worse than the repaired
        incumbent it started from."""
        inc = data.draw(incumbents(n=problem.n, l=problem.l))
        seed = repair_configuration(problem, inc)
        assume(seed is not None)
        warm = warm_start(problem, inc, budget_evals=1)
        assert warm.origin == "warm"
        assert warm.expected_error <= problem.objective(seed) * (1 + 1e-6)
        assert problem.valid(warm.ms)

    @given(problems(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_never_worse_than_cold_solve(self, problem, data):
        """With budget to spare, warm_start takes the better of warm and
        cold — so it can never lose to a cold solve."""
        inc = data.draw(incumbents(n=problem.n, l=problem.l))
        try:
            cold = heuristic(problem)
        except ValueError:
            assume(False)
        best = warm_start(problem, inc)
        assert best.expected_error <= cold.expected_error * (1 + 1e-9)

    def test_unrepairable_incumbent_falls_back_cold(self):
        problem = FTProblem(
            n=8, p=0.01, sizes=(1e3, 1e4), errors=(1e-2, 1e-4),
            original_size=2e4, omega=1.0,
        )
        sol = warm_start(problem, [1, 2, 3])  # wrong level count
        assert sol.origin == "cold"
        assert problem.valid(sol.ms)

    def test_budget_counts_evaluations_not_wallclock(self):
        problem = FTProblem(
            n=12, p=0.02, sizes=(1e3, 1e4, 1e5), errors=(1e-2, 1e-4, 1e-6),
            original_size=2e5, omega=1.0,
        )
        inc = heuristic(problem).ms
        tight = warm_start(problem, inc, budget_evals=1)
        loose = warm_start(problem, inc, budget_evals=10**9)
        # A tight budget skips the cold comparison solve entirely.
        assert tight.evaluations < loose.evaluations
        assert tight.ms == loose.ms  # fixpoint incumbent: same answer


class TestDriftObserver:
    def test_estimator_converges_toward_outage_rate(self):
        est = AvailabilityEstimator(4, prior=0.01)
        for _ in range(60):
            est.observe([0])  # system 0 always down, others always up
        ps = est.probabilities()
        assert ps[0] == pytest.approx(0.9)  # the default ceiling clamp
        assert all(p < 0.01 for p in ps[1:])

    def test_estimator_clamps(self):
        est = AvailabilityEstimator(2, prior=0.5)
        for _ in range(60):
            est.observe([0])
        assert est.probabilities() == (est.ceil, est.floor)

    def test_p_drift_thresholds(self):
        policy = DriftPolicy(p_rel=0.5, p_abs=0.02)
        assert not p_drift(0.01, 0.012, policy)   # within both thresholds
        assert p_drift(0.01, 0.05, policy)        # beyond the absolute floor
        assert not p_drift(0.2, 0.28, policy)     # < 50% relative move
        assert p_drift(0.2, 0.35, policy)

    def test_hot_objects_against_other_objects(self):
        policy = DriftPolicy(hot_factor=4.0, hot_min_accesses=10)
        assert hot_objects({"a": 40, "b": 2, "c": 1}, policy) == ["a"]
        assert hot_objects({"a": 9, "b": 0}, policy) == []   # below min
        assert hot_objects({"a": 40}, policy) == []          # nothing to compare
        assert hot_objects({"a": 12, "b": 11}, policy) == []

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            DriftPolicy(p_rel=-0.1)
        with pytest.raises(ValueError):
            DriftPolicy(cooldown_epochs=-1)


class TestLiveMigration:
    def test_migrate_and_restore_exact(self, stack):
        stack.prepare("obj", smooth_field())
        ref = stack.restore("obj", strategy="naive").data
        rec = stack.catalog.get_object("obj")
        old = [int(m) for m in rec.ft_config]
        new = [m + 1 for m in old]
        report = LiveMigrator(stack).migrate("obj", new)
        assert report.complete and report.migrated == len(old)
        rec = stack.catalog.get_object("obj")
        assert [int(m) for m in rec.ft_config] == new
        assert rec.generations == [1] * len(new)
        out = stack.restore("obj", strategy="naive")
        np.testing.assert_array_equal(out.data, ref)

    def test_migration_is_idempotent(self, stack):
        stack.prepare("obj", smooth_field())
        rec = stack.catalog.get_object("obj")
        new = [int(m) + 1 for m in rec.ft_config]
        LiveMigrator(stack).migrate("obj", new)
        second = LiveMigrator(stack).migrate("obj", new)
        assert second.migrated == 0 and second.deferred == 0
        assert all(s.action == "unchanged" for s in second.steps)

    def test_old_generation_retired(self, stack):
        stack.prepare("obj", smooth_field())
        rec = stack.catalog.get_object("obj")
        new = [int(m) + 1 for m in rec.ft_config]
        LiveMigrator(stack).migrate("obj", new)
        rec = stack.catalog.get_object("obj")
        for j in range(len(new)):
            assert stack.cluster.locate("obj", j) == {}
            sname = level_storage_name("obj", 1)
            assert len(stack.cluster.locate(sname, j)) == stack.cluster.n
            assert rec.placements[j] == list(range(stack.cluster.n))
            for i, crc in enumerate(rec.checksums[j]):
                assert stack.cluster[i].get(sname, j, i).verify(crc)
            entry = stack.ledger.get("obj", j)
            assert entry.store_name == sname
            assert entry.m == new[j] and entry.headroom == new[j]

    def test_safety_invariant_at_every_checkpoint(self, stack, layout):
        """At each protocol step, every level tolerates up to its
        *current* m_j concurrent failures — probed by actually failing
        that many systems at the migrator's checkpoint seam."""
        stack.prepare("obj", smooth_field(), **layout)
        ref = stack.restore("obj", strategy="naive").data
        rec = stack.catalog.get_object("obj")
        new = [int(m) + 1 for m in rec.ft_config]
        n = stack.cluster.n
        seen = []

        def probe(stage, level):
            seen.append((stage, level))
            rec_now = stack.catalog.get_object("obj")
            for j, m in enumerate(rec_now.ft_config):
                for failed in (list(range(m)), list(range(n - m, n))):
                    stack.cluster.fail(failed)
                    assert level_recoverable(stack, "obj", j), (
                        stage, level, j, failed
                    )
                    assert safety_breaches(stack, "obj") == []
                    stack.cluster.restore_all()

        report = LiveMigrator(stack).migrate("obj", new, checkpoint=probe)
        assert report.complete
        stages = {s for s, _ in seen}
        assert stages == {"decoded", "staged", "flipped", "retired"}
        out = stack.restore("obj", strategy="naive")
        np.testing.assert_array_equal(out.data, ref)

    def test_faults_injected_mid_migration_then_defer(self, stack, layout):
        """Failing systems *during* one level's migration leaves every
        level recoverable, and makes the next level defer (full
        placement or defer) until the systems return."""
        stack.prepare("obj", smooth_field(), **layout)
        ref = stack.restore("obj", strategy="naive").data
        rec = stack.catalog.get_object("obj")
        old = [int(m) for m in rec.ft_config]
        new = [m + 1 for m in old]

        def sabotage(stage, level):
            if stage == "flipped" and level == 0:
                # The smallest *current* tolerance across levels is the
                # last level's old m (it has not migrated yet).  That
                # many faults, left in place, stay within every level's
                # tolerance yet block all later levels' staging.
                stack.cluster.fail(list(range(old[-1])))

        report = LiveMigrator(stack).migrate("obj", new, checkpoint=sabotage)
        assert report.steps[0].action == "migrated"
        assert all(s.action == "deferred" for s in report.steps[1:])
        rec = stack.catalog.get_object("obj")
        assert [int(m) for m in rec.ft_config] == [new[0]] + old[1:]
        for j in range(len(old)):
            assert level_recoverable(stack, "obj", j)
        assert safety_breaches(stack, "obj") == []
        # Systems return: the retry completes the remaining levels.
        stack.cluster.restore_all()
        retry = LiveMigrator(stack).migrate("obj", new)
        assert retry.complete
        assert [int(m) for m in stack.catalog.get_object("obj").ft_config] == new
        out = stack.restore("obj", strategy="naive")
        np.testing.assert_array_equal(out.data, ref)

    def test_defers_when_any_system_down(self, stack):
        stack.prepare("obj", smooth_field())
        rec = stack.catalog.get_object("obj")
        new = [int(m) + 1 for m in rec.ft_config]
        stack.cluster.fail([3])
        report = LiveMigrator(stack).migrate("obj", new)
        assert report.migrated == 0
        assert report.deferred == len(new)
        # Old generation untouched.
        rec2 = stack.catalog.get_object("obj")
        assert [int(m) for m in rec2.ft_config] == [int(m) for m in rec.ft_config]
        assert rec2.generations == [0] * len(new)

    def test_tiled_object_migrates_up_and_back(self, stack):
        """A 4-tile object re-encodes per (level, tile): every restore
        taken at a checkpoint, up and back, is bit-identical to the one
        before the migration, and migrating back to the original ladder
        writes the original fragments again."""
        stack.prepare("obj", smooth_field(), **TILED)
        ref = stack.restore("obj", strategy="naive").data
        rec = stack.catalog.get_object("obj")
        assert len(rec.tile_table()[0]) == 4
        old = [int(m) for m in rec.ft_config]
        seen = []

        def probe(stage, level):
            seen.append(stage)
            out = stack.restore("obj", strategy="naive")
            assert out.levels_used == len(old) and out.degraded is None
            np.testing.assert_array_equal(out.data, ref)

        mig = LiveMigrator(stack)
        assert mig.migrate("obj", [m + 1 for m in old], checkpoint=probe).complete
        up = stack.catalog.get_object("obj")
        assert up.tile_table()[2] != rec.tile_table()[2]
        assert mig.migrate("obj", old, checkpoint=probe).complete
        back = stack.catalog.get_object("obj")
        assert seen == ["decoded", "staged", "flipped", "retired"] * (2 * len(old))
        assert back.generations == [2] * len(old)
        assert back.tile_table() == rec.tile_table()
        assert back.checksums == rec.checksums
        np.testing.assert_array_equal(
            stack.restore("obj", strategy="naive").data, ref
        )

    def test_reads_recorded_home_past_stale_copies(self, stack, monkeypatch):
        """Sources come from the system the record places them on, one
        ``get`` each: self-consistent copies with the wrong bytes on
        lower-id systems (for m + 1 indices, enough to leave fewer than
        k clean if they were read) do not hide the clean ones."""
        stack.prepare("obj", smooth_field())
        ref = stack.restore("obj", strategy="naive").data
        rec = stack.catalog.get_object("obj")
        n, m0 = stack.cluster.n, int(rec.ft_config[0])
        for i in range(1, m0 + 2):
            bad = bytes(rec.fragment_sizes[0][i])
            assert crc32(bad) != rec.checksums[0][i]
            stack.cluster[i - 1].put(
                StoredFragment("obj", 0, i, len(bad), bad, checksum=crc32(bad))
            )
        gets = []
        real_get = StorageSystem.get

        def counting_get(system, name, level, index):
            if name == "obj":
                gets.append((system.system_id, level, index))
            return real_get(system, name, level, index)

        monkeypatch.setattr(StorageSystem, "get", counting_get)
        new = [m0 + 1] + [int(m) for m in rec.ft_config[1:]]
        report = LiveMigrator(stack).migrate("obj", new)
        assert report.steps[0].action == "migrated", report.steps
        assert gets == [(i, 0, i) for i in range(n - m0)]
        monkeypatch.undo()
        np.testing.assert_array_equal(
            stack.restore("obj", strategy="naive").data, ref
        )

    def test_invalid_targets_rejected(self, stack):
        stack.prepare("obj", smooth_field())
        mig = LiveMigrator(stack)
        with pytest.raises(ValueError, match="level count"):
            mig.migrate("obj", [5, 4])
        with pytest.raises(ValueError, match="decreasing"):
            mig.migrate("obj", [3, 3, 2, 1])

    def test_migration_charges_wan_transfers(self, stack):
        stack.prepare("obj", smooth_field())
        rec = stack.catalog.get_object("obj")
        new = [int(m) + 1 for m in rec.ft_config]
        report = LiveMigrator(stack).migrate("obj", new)
        assert report.read_bytes > 0
        assert report.written_bytes > report.read_bytes  # n staged vs k read
        assert report.transfer_latency > 0


class TestReconfigOperator:
    def test_no_drift_no_action(self, stack):
        stack.prepare("obj", smooth_field())
        op = ReconfigOperator(stack)
        ev = op.step(0, [])
        assert ev["action"] == "idle" and ev["migrations"] == []

    def test_drift_triggers_reconfigure(self, stack):
        stack.prepare("obj", smooth_field())
        policy = DriftPolicy(p_abs=0.02, cooldown_epochs=0, scrub_every=0)
        op = ReconfigOperator(stack, policy=policy)
        # Hammer the estimator: systems 0-4 down for a stretch.
        for epoch in range(12):
            op.step(epoch, [0, 1, 2, 3, 4] if epoch < 8 else [])
        reconfigs = [e for e in op.events if e["action"] == "reconfigure"]
        assert reconfigs, "drift this large must trigger a re-solve"

    def test_drift_reconfigures_tiled_objects(self, stack):
        stack.prepare("obj", smooth_field(), **TILED)
        policy = DriftPolicy(p_abs=0.02, cooldown_epochs=0, scrub_every=0)
        op = ReconfigOperator(stack, policy=policy)
        for epoch in range(12):
            op.step(epoch, [0, 1, 2, 3, 4] if epoch < 8 else [])
        entries = [
            entry for e in op.events if e["action"] == "reconfigure"
            for entry in e["migrations"]
        ]
        assert entries and all(e["object"] == "obj" for e in entries)
        assert safety_breaches(stack, "obj") == []

    def test_cli_plans_tiled_objects(self, tmp_path, capsys):
        np.save(tmp_path / "f.npy", smooth_field())
        ws = str(tmp_path / "ws")
        assert cli_main([
            "prepare", str(tmp_path / "f.npy"), "obj", "--workspace", ws,
            "--parallelism", "process", "--workers", "1",
            "--tile-planes", "5",
        ]) == 0
        with MetadataCatalog(f"{ws}/metadata") as catalog:
            assert len(catalog.get_object("obj").tile_table()[0]) == 4
        capsys.readouterr()
        assert cli_main(
            ["reconfigure", "--workspace", ws, "--dry-run", "--json"]
        ) == 0
        (entry,) = json.loads(capsys.readouterr().out)
        assert entry["object"] == "obj" and "skipped" not in entry
        assert entry["to"] and entry["from"]

    def test_second_pass_plans_zero_moves(self, stack):
        """Idempotence: under unchanged parameters, re-planning returns
        the incumbent and the migrator makes zero moves."""
        stack.prepare("obj", smooth_field())
        op = ReconfigOperator(stack)
        first = op.plan("obj")
        incumbent = [int(m) for m in stack.catalog.get_object("obj").ft_config]
        if list(first.ms) != incumbent:
            assert op.migrator.migrate("obj", list(first.ms)).complete
        second = op.plan("obj")
        assert list(second.ms) == list(first.ms)
        assert second.origin == "warm"
        report = op.migrator.migrate("obj", list(second.ms))
        assert report.migrated == 0 and report.deferred == 0

    def test_cooldown_suppresses_thrash(self, stack):
        stack.prepare("obj", smooth_field())
        policy = DriftPolicy(p_abs=0.01, p_rel=0.1, cooldown_epochs=100)
        op = ReconfigOperator(stack, policy=policy)
        actions = [op.step(e, [0, 1, 2])["action"] for e in range(6)]
        assert actions.count("reconfigure") <= 1
        assert "cooldown" in actions

    def test_hot_object_gets_more_parity(self, stack):
        stack.prepare("hot", smooth_field(seed=1))
        stack.prepare("cold", smooth_field(seed=2))
        before = [int(m) for m in stack.catalog.get_object("hot").ft_config]
        policy = DriftPolicy(
            p_abs=0.5, hot_factor=4.0, hot_min_accesses=10,
            hot_omega_boost=0.5, cooldown_epochs=0,
        )
        op = ReconfigOperator(stack, policy=policy)
        for _ in range(20):
            stack.catalog.record_access("hot")
        ev = op.step(0, [])
        assert ev["action"] == "reconfigure"
        after = [int(m) for m in stack.catalog.get_object("hot").ft_config]
        assert after != before
        assert sum(after) > sum(before)

    def test_heal_on_deficit(self, stack):
        stack.prepare("obj", smooth_field())
        ref = stack.restore("obj", strategy="naive").data
        # Break a fragment and let the scrubber record the deficit.
        from repro.healing import scrub_and_repair

        loc = stack.cluster.locate("obj", 0)
        idx = sorted(loc)[0]
        stack.cluster[loc[idx]].delete("obj", 0, idx)
        scrub_and_repair(
            stack.cluster, stack.catalog, ledger=stack.ledger, repair=False
        )
        assert stack.ledger.deficits()
        op = ReconfigOperator(stack)
        ev = op.step(0, [])
        assert ev["healed"] >= 1
        assert not stack.ledger.deficits()
        out = stack.restore("obj", strategy="naive")
        np.testing.assert_array_equal(out.data, ref)

    def test_periodic_scrub_finds_silent_damage(self, stack):
        stack.prepare("obj", smooth_field())
        loc = stack.cluster.locate("obj", 1)
        idx = sorted(loc)[0]
        stack.cluster[loc[idx]].delete("obj", 1, idx)
        policy = DriftPolicy(p_abs=0.9, scrub_every=4)
        op = ReconfigOperator(stack, policy=policy)
        healed = [op.step(e, [])["healed"] for e in range(5)]
        assert sum(healed) >= 1  # the epoch-4 periodic pass caught it
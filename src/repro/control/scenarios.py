"""Deterministic chaos-campaign scenarios proving the control plane.

Each scenario stands up a *real* miniature RAPIDS stack — in-memory
geo-distributed cluster, metadata catalog, durability ledger, erasure
codec — prepares a couple of objects, then drives a
:func:`~repro.sim.run_campaign` whose step hook runs the full control
loop every epoch: sync the cluster to the epoch's outage set, perturb
the environment the scenario's way, serve real restores, step the
:class:`~repro.control.operator.ReconfigOperator`, and probe the
migration safety invariant.

The catalog:

* ``region-loss`` — a three-system region goes dark for twelve epochs
  (a :class:`~repro.storage.failures.MaintenanceSchedule` bridged
  through :meth:`~repro.chaos.FaultPlan.from_schedule`); at-rest damage
  is planted after the region returns so the periodic anti-entropy
  pass has something to heal.
* ``bandwidth-drift`` — no outages; three systems' WAN bandwidth
  collapses to a quarter for a sustained window, then the system goes
  idle, exercising the tracker's staleness decay back toward the prior.
* ``flash-crowd`` — one dataset's access rate explodes; the operator
  detects the hot object, re-solves with a boosted overhead budget, and
  migrates it to a higher-parity configuration live.
* ``correlated`` — region-shared-fate failures
  (:class:`~repro.storage.failures.CorrelatedFailureModel`) push the
  estimated outage probability past the drift threshold.

Everything is derived from the run seed through SHA-256 — no wall
clock, no shared-RNG call-order coupling — so two same-seed runs emit
**byte-identical** trajectory JSON (:func:`scenario_json`), which is
what the determinism tests and the CI gate assert.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..chaos.plan import FaultPlan
from ..core.adaptive import BandwidthTracker
from ..core.pipeline import RAPIDS
from ..metadata import MetadataCatalog
from ..refactor import Refactorer
from ..sim.campaign import CampaignConfig, run_campaign
from ..storage import StorageCluster
from ..storage.failures import CorrelatedFailureModel, MaintenanceSchedule
from ..transfer import paper_bandwidth_profile
from .migration import safety_breaches
from .observer import DriftPolicy
from .operator import ReconfigOperator

__all__ = ["ScenarioSpec", "SCENARIOS", "run_scenario", "scenario_json"]

#: Disables a detector without a dedicated "off" switch.
_NEVER = 10**9


#: Every campaign runs on 8 systems with these two objects.
_N_SYSTEMS = 8
_OBJECTS = ("primary", "cold")


@dataclass(frozen=True)
class ScenarioSpec:
    """A named, fully parameterised chaos campaign."""

    name: str
    title: str
    description: str
    epochs: int
    policy: DriftPolicy
    #: Staleness horizon for the scenario's bandwidth tracker (epochs).
    tracker_horizon: float | None = None


SCENARIOS: dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        ScenarioSpec(
            name="region-loss",
            title="Region loss with anti-entropy recovery",
            description=(
                "Systems 0-2 (one region) are down for epochs 12-23; "
                "at-rest damage is planted at epoch 28; periodic scrubs "
                "heal it.  Availability drift triggers a re-solve."
            ),
            epochs=48,
            policy=DriftPolicy(
                p_rel=1.0, p_abs=0.05, hot_min_accesses=_NEVER,
                cooldown_epochs=8, scrub_every=12,
            ),
        ),
        ScenarioSpec(
            name="bandwidth-drift",
            title="Sustained WAN bandwidth degradation",
            description=(
                "No outages.  Systems 0-2 drop to quarter bandwidth for "
                "epochs 16-31, observed by the tracker; after epoch 32 "
                "the system idles and estimates decay toward the prior."
            ),
            epochs=48,
            policy=DriftPolicy(
                p_rel=1.0, p_abs=0.5, hot_min_accesses=_NEVER,
                cooldown_epochs=8,
            ),
            tracker_horizon=8.0,
        ),
        ScenarioSpec(
            name="flash-crowd",
            title="Flash crowd on one dataset",
            description=(
                "No outages.  The primary object takes four extra "
                "accesses per epoch during epochs 8-31; the operator "
                "marks it hot, re-solves with a boosted overhead "
                "budget, and migrates it live to higher parity."
            ),
            epochs=48,
            policy=DriftPolicy(
                p_rel=1.0, p_abs=0.5, hot_factor=4.0,
                hot_min_accesses=25, hot_omega_boost=0.35,
                cooldown_epochs=8,
            ),
        ),
        ScenarioSpec(
            name="correlated",
            title="Correlated region-shared-fate failures",
            description=(
                "Four two-system regions fail together with probability "
                "0.05 per epoch (plus independent singles at 0.02); the "
                "estimator's drift triggers reconfiguration between "
                "outage bursts."
            ),
            epochs=48,
            policy=DriftPolicy(
                p_rel=1.0, p_abs=0.03, hot_min_accesses=_NEVER,
                cooldown_epochs=8, scrub_every=16,
            ),
        ),
    )
}


def _derive(seed: int, tag: str) -> int:
    """A sub-seed bound to (run seed, purpose) — never shared RNG state."""
    digest = hashlib.sha256(f"{seed}|{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _field(name: str, seed: int, n: int = 17) -> np.ndarray:
    """A deterministic smooth 3-D field, distinct per (object, seed)."""
    rng = np.random.default_rng(_derive(seed, f"field|{name}"))
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


def _failure_model(spec: ScenarioSpec, seed: int):
    """The scenario's deterministic epoch-outage source."""
    if spec.name == "region-loss":
        schedule = MaintenanceSchedule()
        for sid in (0, 1, 2):
            schedule.add_window(sid, 12, 24)
        return FaultPlan.from_schedule(
            schedule, sites=("system.outage",),
            seed=_derive(seed, "region-loss"),
        )
    if spec.name == "correlated":
        return CorrelatedFailureModel(
            regions=[[0, 1], [2, 3], [4, 5], [6, 7]],
            p_region=0.05,
            p_single=0.02,
            seed=_derive(seed, "correlated"),
        )
    return lambda epoch, n: []  # bandwidth-drift / flash-crowd: no outages


def _env_step(spec: ScenarioSpec, epoch: int, rapids, tracker, base_bw) -> None:
    """Apply the scenario's per-epoch environment perturbation."""
    cluster = rapids.cluster
    if spec.name == "bandwidth-drift":
        degraded = 16 <= epoch < 32
        for sid in (0, 1, 2):
            cluster.systems[sid].bandwidth = float(
                base_bw[sid] * (0.25 if degraded else 1.0)
            )
        if epoch < 32:
            # Active phase: one probe transfer per up system per epoch,
            # so the tracker sees the effective WAN.  After epoch 32 the
            # system idles — only the operator's tick() advances time,
            # and estimates decay toward the prior.
            for sid in cluster.available_ids():
                bw = cluster.systems[sid].bandwidth
                tracker.observe(sid, bw, 1.0)
    elif spec.name == "flash-crowd":
        if 8 <= epoch < 32:
            rapids.catalog.record_access(_OBJECTS[0], 4)
    elif spec.name == "region-loss" and epoch == 28:
        # Plant at-rest damage (a vanished fragment) for the next
        # periodic anti-entropy pass to find and heal.
        rec = rapids.catalog.get_object(_OBJECTS[0])
        sname = rec.level_storage_name(0)
        loc = cluster.locate(sname, 0)
        if loc:
            idx = sorted(loc)[0]
            cluster[loc[idx]].delete(sname, 0, idx)


def run_scenario(
    scenario: "str | ScenarioSpec",
    *,
    seed: int = 7,
    epochs: int | None = None,
    breach_epochs: int = 0,
) -> dict:
    """Run one scenario end to end; returns the JSON-safe result.

    ``breach_epochs`` is the gate's tolerance: the run is ``ok`` only if
    no safety breach (a level unrecoverable while the concurrent outage
    count is within its design tolerance ``m_j`` — i.e. damage the
    system did to itself) persists for more than that many consecutive
    epochs.  The default tolerates none.
    """
    spec = SCENARIOS[scenario] if isinstance(scenario, str) else scenario
    epochs = spec.epochs if epochs is None else int(epochs)
    with tempfile.TemporaryDirectory() as td:
        base_bw = paper_bandwidth_profile(_N_SYSTEMS)
        cluster = StorageCluster(base_bw.copy())
        catalog = MetadataCatalog(Path(td) / "meta")
        rapids = RAPIDS(
            cluster, catalog, refactorer=Refactorer(4, workers=1),
            omega=0.25, ec_workers=1,
        )
        for obj in _OBJECTS:
            rapids.prepare(obj, _field(obj, seed))
        total_original = sum(
            int(np.prod(catalog.get_object(o).shape))
            * np.dtype(catalog.get_object(o).dtype).itemsize
            for o in _OBJECTS
        )
        tracker = BandwidthTracker(
            catalog, base_bw.copy(), staleness_horizon=spec.tracker_horizon
        )
        operator = ReconfigOperator(rapids, policy=spec.policy, tracker=tracker)
        primary = _OBJECTS[0]
        initial_ms = {
            obj: [int(m) for m in catalog.get_object(obj).ft_config]
            for obj in _OBJECTS
        }
        rec0 = catalog.get_object(primary)
        config = CampaignConfig(
            n=_N_SYSTEMS, p_fail=0.05, p_repair=0.5,
            ms=tuple(int(m) for m in rec0.ft_config),
            errors=tuple(float(e) for e in rec0.level_errors),
            epochs=epochs, requests_per_epoch=1,
        )
        rows: list[dict] = []
        breach_at: list[int] = []

        def hook(epoch: int, failed: list[int], ms) -> tuple[int, ...] | None:
            cluster.restore_all()
            cluster.fail(failed)
            _env_step(spec, epoch, rapids, tracker, base_bw)
            served: dict[str, int] = {}
            for i, obj in enumerate(_OBJECTS):
                if i == 0 or epoch % 4 == 0:
                    rep = rapids.restore(
                        obj, strategy="naive", record_access=True
                    )
                    served[obj] = int(rep.levels_used)
            ev = operator.step(epoch, failed)
            breaches = {
                obj: b
                for obj in _OBJECTS
                if (b := safety_breaches(rapids, obj))
            }
            if breaches:
                breach_at.append(int(epoch))
            rows.append({
                "epoch": int(epoch),
                "failed": [int(s) for s in failed],
                "action": ev["action"],
                "healed": int(ev["healed"]),
                "migrations": len(ev["migrations"]),
                "ms": {
                    obj: [int(m) for m in catalog.get_object(obj).ft_config]
                    for obj in _OBJECTS
                },
                "served_levels": served,
                "overhead": float(
                    cluster.total_stored_bytes() / total_original
                ),
                "tracker_error": float(
                    tracker.estimation_error(cluster.bandwidths)
                ),
                "breaches": breaches,
            })
            cur = tuple(int(m) for m in catalog.get_object(primary).ft_config)
            return cur if cur != tuple(ms) else None

        stats = run_campaign(
            config, seed=seed,
            failure_model=_failure_model(spec, seed),
            step_hook=hook,
        )
        objects = {
            obj: {
                "initial_ms": initial_ms[obj],
                "final_ms": [
                    int(m) for m in catalog.get_object(obj).ft_config
                ],
                "level_errors": [
                    float(e) for e in catalog.get_object(obj).level_errors
                ],
            }
            for obj in _OBJECTS
        }
        catalog.close()
    longest = _longest_run(breach_at)
    return {
        "scenario": spec.name,
        "title": spec.title,
        "seed": int(seed),
        "epochs": int(epochs),
        "n": int(_N_SYSTEMS),
        "objects": objects,
        "campaign": {
            "requests": int(stats.requests),
            "availability": float(stats.availability),
            "mean_error": float(stats.mean_error),
            "full_accuracy_fraction": float(stats.full_accuracy_fraction),
            "max_concurrent_failures": int(stats.max_concurrent_failures),
        },
        "trajectory": rows,
        "operator_events": operator.events,
        "breach_epochs": breach_at,
        "max_breach_run": longest,
        "ok": longest <= int(breach_epochs),
    }


def _longest_run(epochs: list[int]) -> int:
    """Length of the longest run of consecutive integers."""
    longest = run = 0
    prev: int | None = None
    for e in epochs:
        run = run + 1 if prev is not None and e == prev + 1 else 1
        longest = max(longest, run)
        prev = e
    return longest


def scenario_json(result: dict) -> str:
    """Canonical artifact text: key-sorted, indented, newline-terminated.

    Contains no wall-clock values, filesystem paths, or other
    run-environment residue, so two same-seed runs produce
    byte-identical artifacts — the determinism contract the scenario
    tests and the CI gate verify.
    """
    return json.dumps(result, sort_keys=True, indent=2) + "\n"

"""The reconfiguration operator: observation -> re-solve -> live migration.

:class:`ReconfigOperator` closes the control loop the paper leaves
open: RAPIDS solves the FT MINLP once at preparation time, but the
parameters it solved under drift.  Each epoch the operator

1. **observes** — folds the epoch's outage outcome into the
   :class:`~repro.control.observer.AvailabilityEstimator`, advances the
   :class:`~repro.core.adaptive.BandwidthTracker` staleness clock, and
   reads per-object access counters from the catalog;
2. **decides** — compares the estimates against the baseline captured
   at the last solve, under the :class:`~repro.control.observer.DriftPolicy`
   thresholds (with a cooldown so migrations cannot thrash);
3. **re-solves** — :func:`~repro.core.ft_optimizer.warm_start` seeded
   from each object's incumbent ``ft_config``, under an
   evaluation-count budget (never worse than the repaired incumbent —
   the property ``tests/test_control.py`` proves);
4. **acts** — changed levels migrate live through
   :class:`~repro.control.migration.LiveMigrator` (deferred levels are
   retried every epoch until they land), and known durability deficits
   trigger an anti-entropy heal pass.

Every step is deterministic given the observation sequence, so a
seeded chaos campaign driving the operator replays byte-identically.
"""

from __future__ import annotations

import numpy as np

from ..core.ft_optimizer import FTProblem, FTSolution, warm_start
from ..healing.repair import scrub_and_repair
from .migration import LiveMigrator
from .observer import AvailabilityEstimator, DriftPolicy, hot_objects, p_drift

__all__ = ["ReconfigOperator"]


class ReconfigOperator:
    """Drives online reconfiguration of a live RAPIDS stack.

    Parameters
    ----------
    rapids:
        The :class:`~repro.core.pipeline.RAPIDS` stack to operate.
    policy:
        Drift thresholds and budgets (default :class:`DriftPolicy`).
    tracker:
        Optional :class:`~repro.core.adaptive.BandwidthTracker`; the
        operator advances its staleness clock once per epoch so idle
        systems' WAN estimates decay toward the prior.
    """

    def __init__(self, rapids, *, policy: DriftPolicy | None = None,
                 tracker=None) -> None:
        self.rapids = rapids
        self.policy = policy or DriftPolicy()
        self.tracker = tracker
        self.migrator = LiveMigrator(rapids)
        prior = float(np.mean(rapids.p))
        self.estimator = AvailabilityEstimator(rapids.cluster.n, prior=prior)
        #: Mean estimated p at the last solve (drift is measured from here).
        self._baseline_p = prior
        #: Per-object access counts at the last solve.
        self._baseline_access: dict[str, int] = dict(
            rapids.catalog.access_counts()
        )
        self._last_reconfig: int | None = None
        #: Levels that deferred during migration: name -> target config.
        self.pending: dict[str, list[int]] = {}
        #: Chronological log of everything the operator did (JSON-safe).
        self.events: list[dict] = []

    # -- sensors -----------------------------------------------------------

    def observe_epoch(self, failed_ids) -> None:
        """Fold one epoch's outage outcome into the estimators."""
        self.estimator.observe(failed_ids)
        if self.tracker is not None:
            self.tracker.tick()

    def access_deltas(self) -> dict[str, int]:
        """Per-object accesses accumulated since the last solve."""
        counts = self.rapids.catalog.access_counts()
        names = self.rapids.catalog.list_objects()
        return {
            name: counts.get(name, 0) - self._baseline_access.get(name, 0)
            for name in names
        }

    def drift_detected(self) -> tuple[bool, list[str]]:
        """(availability drift?, hot object names)."""
        drifted = p_drift(
            self._baseline_p, self.estimator.mean_p(), self.policy
        )
        hot = hot_objects(self.access_deltas(), self.policy)
        return drifted, hot

    # -- planning ----------------------------------------------------------

    def plan(self, name: str, *, omega: float | None = None) -> FTSolution:
        """Warm-started re-solve of one object's FT configuration.

        Seeds from the incumbent ``ft_config``; uses the estimator's
        per-system probability vector (the heterogeneous
        Poisson-binomial model) and the policy's evaluation budget.
        """
        rec = self.rapids.catalog.get_object(name)
        original = float(
            int(np.prod(rec.shape)) * np.dtype(rec.dtype).itemsize
        )
        problem = FTProblem(
            n=rec.n_systems,
            p=self.estimator.probabilities(),
            sizes=tuple(float(s) for s in rec.level_sizes),
            errors=tuple(float(e) for e in rec.level_errors),
            original_size=original,
            omega=self.rapids.omega if omega is None else omega,
        )
        return warm_start(
            problem, rec.ft_config, budget_evals=self.policy.budget_evals
        )

    # -- the control loop --------------------------------------------------

    def step(self, epoch: int, failed_ids=()) -> dict:
        """Run one control-loop iteration; returns a JSON-safe event.

        Call once per epoch, after the epoch's outages are known.  The
        operator only *stages and flips* while migrations can complete
        safely (the migrator defers otherwise), so calling it mid-outage
        is always safe — that is the point.
        """
        self.observe_epoch(failed_ids)
        event: dict = {"epoch": int(epoch), "action": "idle",
                       "migrations": [], "healed": 0}

        # Retry deferred migrations first: their solve already happened.
        self._run_pending(event)

        # Heal before considering reconfiguration — the migrator needs
        # readable source levels.  Runs on known deficits, and on the
        # policy's periodic anti-entropy cadence (which also *finds*
        # silent damage the ledger does not know about yet).
        scrub_due = (
            self.policy.scrub_every > 0
            and epoch > 0
            and epoch % self.policy.scrub_every == 0
        )
        if scrub_due or self.rapids.ledger.deficits():
            _, rep = scrub_and_repair(
                self.rapids.cluster, self.rapids.catalog,
                ledger=self.rapids.ledger,
            )
            event["healed"] = rep.repaired if rep is not None else 0
            if event["healed"]:
                event["action"] = "heal"

        drifted, hot = self.drift_detected()
        in_cooldown = (
            self._last_reconfig is not None
            and epoch - self._last_reconfig < self.policy.cooldown_epochs
        )
        if (not drifted and not hot) or in_cooldown:
            if (drifted or hot) and in_cooldown:
                event["action"] = "cooldown"
            self.events.append(event)
            return event

        event["action"] = "reconfigure"
        event["drift"] = {
            "baseline_p": self._baseline_p,
            "current_p": self.estimator.mean_p(),
            "hot": hot,
        }
        for name in self.rapids.catalog.list_objects():
            rec = self.rapids.catalog.get_object(name)
            boost = self.policy.hot_omega_boost if name in hot else 0.0
            sol = self.plan(name, omega=self.rapids.omega + boost)
            entry = {
                "object": name,
                "origin": sol.origin,
                "evaluations": sol.evaluations,
                "from": list(rec.ft_config),
                "to": list(sol.ms),
            }
            if sol.ms != list(rec.ft_config):
                report = self.migrator.migrate(name, sol.ms)
                entry["migrated"] = report.migrated
                entry["deferred"] = report.deferred
                if not report.complete:
                    self.pending[name] = list(sol.ms)
            event["migrations"].append(entry)
        # Reset the drift baseline whether or not any config changed:
        # the decision was re-made under current parameters.
        self._baseline_p = self.estimator.mean_p()
        self._baseline_access = dict(self.rapids.catalog.access_counts())
        self._last_reconfig = int(epoch)
        self.events.append(event)
        return event

    def _run_pending(self, event: dict) -> None:
        """Retry every deferred migration; drop the ones that complete."""
        for name in sorted(self.pending):
            target = self.pending[name]
            rec = self.rapids.catalog.get_object(name)
            if list(rec.ft_config) == target:
                del self.pending[name]
                continue
            report = self.migrator.migrate(name, target)
            event["migrations"].append({
                "object": name,
                "origin": "pending",
                "from": list(rec.ft_config),
                "to": list(target),
                "migrated": report.migrated,
                "deferred": report.deferred,
            })
            if report.complete:
                del self.pending[name]
                event["action"] = "migrate-pending"

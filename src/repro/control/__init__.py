"""The control plane: observation -> reconfiguration -> live migration.

RAPIDS solves its fault-tolerance MINLP once, at preparation time; this
package closes the loop afterwards.  :mod:`~repro.control.observer`
turns epoch-by-epoch telemetry (outage outcomes, WAN throughput, access
counters) into drift decisions; :mod:`~repro.control.operator` re-runs
the exact FT solver under the estimated parameters; and
:mod:`~repro.control.migration` applies the new configuration to live
data without ever dropping a level below its design recoverability.
:mod:`~repro.control.scenarios` proves the loop end to end with a
deterministic chaos-campaign suite.
"""

from .migration import (
    LiveMigrator,
    MigrationReport,
    MigrationStep,
    level_recoverable,
    safety_breaches,
)
from .observer import AvailabilityEstimator, DriftPolicy, hot_objects, p_drift
from .operator import ReconfigOperator
from .scenarios import SCENARIOS, ScenarioSpec, run_scenario, scenario_json

__all__ = [
    "AvailabilityEstimator",
    "DriftPolicy",
    "LiveMigrator",
    "MigrationReport",
    "MigrationStep",
    "ReconfigOperator",
    "SCENARIOS",
    "ScenarioSpec",
    "hot_objects",
    "level_recoverable",
    "p_drift",
    "run_scenario",
    "safety_breaches",
    "scenario_json",
]

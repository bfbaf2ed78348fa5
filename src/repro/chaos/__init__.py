"""Deterministic fault injection for chaos testing (``repro.chaos``).

FoundationDB-style simulation testing for the RAPIDS stack: a seedable
:class:`FaultPlan` schedules faults (fragment corruption, read/write
errors, kvstore crashes, outages), a
:class:`FaultInjector` surfaces them at every instrumented I/O seam,
:class:`RetryPolicy` is the shared backoff policy, and
:class:`DegradedRestore` is the structured report ``RAPIDS.restore``
returns instead of raising when faults exceed a level's tolerance.

Every injected fault is replayable from ``(seed, plan)`` alone::

    plan = FaultPlan.random(seed=7, n_systems=16)
    injector = FaultInjector(plan).install(rapids)
    injector.apply_outages(rapids.cluster)
    report = rapids.restore("obj")          # never raises; may degrade
"""

from .atrest import inflict_at_rest
from .degraded import DegradedRestore, LevelFailure
from .injector import FaultInjector, FaultRecord, InjectedFault
from .plan import EFFECTS, SITES, FaultPlan, FaultSpec
from .retry import RetryOutcome, RetryPolicy

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "SITES",
    "EFFECTS",
    "FaultInjector",
    "InjectedFault",
    "FaultRecord",
    "RetryPolicy",
    "RetryOutcome",
    "DegradedRestore",
    "LevelFailure",
    "inflict_at_rest",
]

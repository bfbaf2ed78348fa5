"""Monte Carlo and campaign simulation: empirical validation of the
availability / expected-error models."""

from .campaign import CampaignConfig, CampaignStats, run_campaign
from .montecarlo import (
    MonteCarloResult,
    simulate_expected_error,
    simulate_unavailability,
)

__all__ = [
    "MonteCarloResult",
    "simulate_expected_error",
    "simulate_unavailability",
    "CampaignConfig",
    "CampaignStats",
    "run_campaign",
]

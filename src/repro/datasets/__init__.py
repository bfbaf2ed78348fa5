"""Synthetic scientific datasets and the Table 2 catalog."""

from .catalog import TABLE2, DataObject, get_object, object_names
from .synthetic import (
    gaussian_random_field,
    hurricane_pressure,
    hurricane_temperature,
    nyx_temperature,
    nyx_velocity,
    scale_pressure,
    scale_temperature,
)

__all__ = [
    "TABLE2",
    "DataObject",
    "get_object",
    "object_names",
    "gaussian_random_field",
    "nyx_temperature",
    "nyx_velocity",
    "scale_pressure",
    "scale_temperature",
    "hurricane_pressure",
    "hurricane_temperature",
]

"""Geo-distributed storage substrate: systems, clusters, failure models."""

from .cluster import Inventory, StorageCluster
from .failures import (
    BernoulliFailureModel,
    CorrelatedFailureModel,
    MaintenanceSchedule,
)
from .filestore import FileStorageCluster, FileStorageSystem
from .system import (
    FRAGMENT_ERRORS,
    CorruptFragmentError,
    StorageSystem,
    StoredFragment,
    UnavailableError,
)

__all__ = [
    "StorageCluster",
    "FileStorageCluster",
    "FileStorageSystem",
    "Inventory",
    "StorageSystem",
    "StoredFragment",
    "UnavailableError",
    "CorruptFragmentError",
    "FRAGMENT_ERRORS",
    "BernoulliFailureModel",
    "CorrelatedFailureModel",
    "MaintenanceSchedule",
]

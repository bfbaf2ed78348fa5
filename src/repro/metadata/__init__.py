"""Metadata management: embedded KV store (RocksDB substitute) + catalog."""

from .catalog import (
    MetadataCatalog,
    ObjectRecord,
    health_key,
    level_storage_name,
)
from .kvstore import CorruptionError, KVStore

__all__ = [
    "KVStore",
    "CorruptionError",
    "MetadataCatalog",
    "ObjectRecord",
    "health_key",
    "level_storage_name",
]

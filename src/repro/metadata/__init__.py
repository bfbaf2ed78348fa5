"""Metadata management: embedded KV store (RocksDB substitute) + catalog."""

from .catalog import (
    FragmentRecord,
    MetadataCatalog,
    ObjectRecord,
    level_storage_name,
)
from .kvstore import CorruptionError, KVStore

__all__ = [
    "KVStore",
    "CorruptionError",
    "MetadataCatalog",
    "ObjectRecord",
    "FragmentRecord",
    "level_storage_name",
]
